"""Multitype branching simulation whose mean matrix is the input matrix.

Individuals of type i produce a random number of offspring with mean f(i)
(Poisson by default), and each offspring independently becomes type j with
probability M(i, j).  Expected next-generation counts from a population
vector p are therefore p @ A.  When the dominant eigenvalue exceeds 1 the
process survives with positive probability, and the type proportions of
surviving trees settle near the dominant left eigenvector.

Offspring are generated per type in aggregate: the total offspring of c
type-i parents is drawn as Poisson(c * f(i)) (the exact law of a sum of c
independent Poisson(f(i)) draws) and split across types multinomially,
which is the exact law of per-offspring independent type assignment.  This
keeps a generation at O(N) draws however large the population is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_sim import mix_seed
from .errors import InvalidArgument, NoSurvivors, PopulationOverflow, Subcritical
from .matrix_core import NonNegativeMatrix, RowDecomposition, decompose
from .oracle import power_iteration

__all__ = [
    "Population",
    "step_generation",
    "run_tree",
    "conditioned_proportions",
]

DEFAULT_CEILING = 10**9
DEFAULT_TRIALS = 10_000
DEFAULT_HORIZON = 10
DEFAULT_LAW = "poisson"
OFFSPRING_LAWS = (DEFAULT_LAW, "deterministic")


@dataclass(frozen=True)
class Population:
    """Per-type individual counts at one generation."""

    counts: np.ndarray
    generation: int

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def _offspring_total(count: int, mean: float, law: str,
                     rng: np.random.Generator) -> int:
    if law == "poisson":
        return int(rng.poisson(count * mean))
    if law == "deterministic":
        per_parent = round(mean)
        if abs(mean - per_parent) > 1e-9:
            raise InvalidArgument(
                f"deterministic offspring law needs integer means, got {mean}"
            )
        return count * per_parent
    raise InvalidArgument(f"unknown offspring law {law!r}; pick from {OFFSPRING_LAWS}")


def step_generation(pop: Population, decomp: RowDecomposition,
                    rng: np.random.Generator, law: str = DEFAULT_LAW,
                    ceiling: int = DEFAULT_CEILING) -> Population:
    """Advance the population by one generation.

    Raises:
        PopulationOverflow: some type count would exceed ``ceiling``
            (supercritical growth guard).
    """
    n = decomp.n
    child = np.zeros(n, dtype=np.int64)
    for i in range(n):
        parents = int(pop.counts[i])
        if parents == 0:
            continue
        total = _offspring_total(parents, float(decomp.fitness[i]), law, rng)
        if total:
            child += rng.multinomial(total, decomp.kernel[i])
    generation = pop.generation + 1
    if child.max(initial=0) > ceiling:
        raise PopulationOverflow(generation, ceiling)
    child.flags.writeable = False
    return Population(counts=child, generation=generation)


def run_tree(decomp: RowDecomposition, initial: Population, horizon: int,
             seed: int, law: str = DEFAULT_LAW,
             ceiling: int = DEFAULT_CEILING) -> np.ndarray:
    """Simulate one tree of the process with mean matrix ``decomp`` for
    ``horizon`` generations and return its final per-type counts.

    Extinction is absorbing, so simulation stops early once every count is
    zero; the tree survived exactly when the counts are not all zero.
    Deterministic for fixed arguments.
    """
    if horizon < 1:
        raise InvalidArgument("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    pop = initial
    for _ in range(horizon):
        if pop.total == 0:
            break
        pop = step_generation(pop, decomp, rng, law=law, ceiling=ceiling)
    return pop.counts


def conditioned_proportions(matrix: NonNegativeMatrix, trials: int,
                            horizon: int, seed: int, law: str = DEFAULT_LAW,
                            ceiling: int = DEFAULT_CEILING,
                            ) -> tuple[np.ndarray, int]:
    """Average type proportions over trees that survive to the horizon.

    Each tree starts from one individual of every type and gets its own
    stream seeded by ``mix_seed(seed, tree_index)``, so trees could run in
    any order or in parallel without changing the result.  Every surviving
    tree weighs equally.

    Returns:
        (proportions on the simplex, number of surviving trees).

    Raises:
        Subcritical: the dominant eigenvalue is <= 1.
        NoSurvivors: no tree survived to the horizon.
    """
    if trials < 1:
        raise InvalidArgument("trials must be >= 1")
    pair = power_iteration(matrix)
    if pair.eigenvalue <= 1.0:
        raise Subcritical(pair.eigenvalue)

    decomp = decompose(matrix)
    n = matrix.n
    start = Population(counts=np.ones(n, dtype=np.int64), generation=0)
    summed = np.zeros(n)
    survivors = 0
    for t in range(trials):
        counts = run_tree(decomp, start, horizon, mix_seed(seed, t),
                          law=law, ceiling=ceiling)
        total = counts.sum()
        if total > 0:
            survivors += 1
            summed += counts / total
    if survivors == 0:
        raise NoSurvivors(trials, horizon)
    proportions = summed / survivors
    proportions.flags.writeable = False
    return proportions, survivors
