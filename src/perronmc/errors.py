"""Exception hierarchy shared by all perronmc modules.

A message names a position from 1, as matrix files count: a row, column
or state of the matrix, or an entry of a vector over its states.  The
``row`` and ``col`` attributes count from 0, as the library does.  Every
error raised by the library derives from exactly one of three families
under :class:`PerronMCError`, and the family's ``exit_code`` is the CLI's
exit status:

* :class:`InputError` (1): bad matrices, bad files, violated preconditions;
* :class:`StructuralError` (2): the matrix is not primitive;
* :class:`GuardError` (3): a statistical or numerical guard refused to
  report a result.  The lam solve needs none: its bracket holds the root.

The argument checks that several modules make live here too, so that each
refusal is worded once.
"""

from __future__ import annotations

import math


class PerronMCError(Exception):
    """Base class for all library errors."""

    exit_code: int


class InputError(PerronMCError):
    """Bad matrices, bad files, or a violated precondition."""

    exit_code = 1


class StructuralError(PerronMCError):
    """The matrix lacks the structure the method needs."""

    exit_code = 2


class GuardError(PerronMCError):
    """A statistical or numerical guard refused to report a result."""

    exit_code = 3


class InvalidArgument(InputError, ValueError):
    """An argument lies outside its documented range."""


def check_counts(**counts: int) -> None:
    """Raise :class:`InvalidArgument` naming the first count below 1."""
    for name, value in counts.items():
        if value < 1:
            raise InvalidArgument(f"{name} must be >= 1")


def check_trial(lam: float) -> None:
    """Raise :class:`InvalidArgument` unless the trial eigenvalue ``lam`` is
    finite and > 0."""
    if not 0 < lam < math.inf:
        raise InvalidArgument(
            f"trial eigenvalue must be finite and > 0, got {lam}")


def check_base_state(k: int, n: int) -> None:
    """Raise :class:`InvalidArgument` unless ``k`` is one of ``n`` states;
    the message counts states from 1, as the CLI does."""
    if not 0 <= k < n:
        raise InvalidArgument(f"base state {k + 1} outside 1..{n}")


# ---------------------------------------------------------------------------
# Matrix validation


class NotSquare(InputError):
    """Input is ragged, rectangular, or not two-dimensional."""


class NegativeEntry(InputError):
    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row + 1}, {col + 1}) is negative: {value}")


class NonFiniteEntry(InputError):
    def __init__(self, row: int, col: int, value: float):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(f"entry ({row + 1}, {col + 1}) is not finite: {value}")


class ZeroRow(InputError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row + 1} sums to zero; every row needs a positive entry")


class RowSumOverflow(InputError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row + 1} sums beyond the float range")


class NotPrimitive(StructuralError):
    """The matrix is reducible or periodic; the message names a cause."""


# ---------------------------------------------------------------------------
# Sampling


class AllTruncated(GuardError):
    def __init__(self, attempts: int, cap: int):
        self.attempts = attempts
        self.cap = cap
        super().__init__(
            f"all {attempts} excursion attempts hit the length cap {cap}; "
            "the cap is far too small or the chain is nearly reducible"
        )


# ---------------------------------------------------------------------------
# Estimation guards


class EmptyBatch(GuardError):
    def __init__(self) -> None:
        super().__init__("batch contains no non-truncated excursions")


class TruncationBiasGuard(GuardError):
    def __init__(self, truncated: int, attempted: int, limit: float):
        self.truncated = truncated
        self.attempted = attempted
        self.limit = limit
        super().__init__(
            f"{truncated}/{attempted} excursions truncated, above the "
            f"{limit:.2%} bias guard; raise the cap or check the matrix"
        )


# ---------------------------------------------------------------------------
# Deterministic oracles


class NoConvergence(GuardError):
    def __init__(self, iterations: int, detail: str = ""):
        self.iterations = iterations
        super().__init__(detail or (
            f"power iteration did not converge within {iterations} iterations; "
            "the spectrum is nearly degenerate"
        ))


class Divergence(GuardError):
    def __init__(self, term_index: int, partial_sum: float, slack: float):
        self.term_index = term_index
        self.partial_sum = partial_sum
        super().__init__(
            f"partial sums exceeded 1 + {slack:g} at term {term_index} "
            f"(sum={partial_sum}); the trial eigenvalue is below the true one"
        )


class NotOnSimplex(InputError):
    def __init__(self, detail: str):
        super().__init__(f"vector is not on the unit simplex: {detail}")


# ---------------------------------------------------------------------------
# Branching simulation


class PopulationOverflow(GuardError):
    def __init__(self, generation: int, ceiling: int):
        self.generation = generation
        self.ceiling = ceiling
        super().__init__(
            f"population exceeded the ceiling {ceiling} at generation {generation}"
        )


class NoSurvivors(GuardError):
    def __init__(self, trials: int, horizon: int):
        self.trials = trials
        self.horizon = horizon
        super().__init__(
            f"no tree out of {trials} survived to generation {horizon}; "
            "increase trials or lower the horizon"
        )


class Subcritical(InputError):
    def __init__(self, eigenvalue: float):
        self.eigenvalue = eigenvalue
        super().__init__(
            f"dominant eigenvalue {eigenvalue} is <= 1; conditioned type "
            "proportions require a supercritical mean matrix"
        )


# ---------------------------------------------------------------------------
# CLI


class ParseError(InputError):
    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")
