"""Dominant eigenpair of a primitive non-negative matrix, two ways.

The Monte Carlo route samples first-return excursions of the embedded
Markov chain and reweights them by the visited row sums; the deterministic
route is classical power iteration.  A return-weight series identity, a
mutation-selection equilibrium residual, and a multitype branching
simulation tie the two together.
"""

from .errors import PerronMCError
from .estimator import EstimationConfig, run_estimation
from .matrix_core import validate
from .oracle import power_iteration

__version__ = "0.1.0"

__all__ = [
    "validate",
    "run_estimation",
    "EstimationConfig",
    "power_iteration",
    "PerronMCError",
    "__version__",
]
