"""Validation, primitivity testing, and the row decomposition of a matrix.

A validated matrix is square, entrywise non-negative, has strictly
positive and finite row sums, and is primitive: some power of it is
entrywise positive, which the method needs.  :func:`validate` is the only
place that certifies primitivity, so every :class:`NonNegativeMatrix`
built from input is primitive.  Such a matrix splits into a fitness
vector ``f`` (the row sums) and a row-stochastic kernel ``M`` with
``A[i, j] = f[i] * M[i, j]``.  All functions here are pure and all
returned arrays are frozen read-only, so values can be shared freely
across threads.

File formats accepted by the CLI for matrices (parsing lives in
:mod:`perronmc.cli`):

* JSON: ``{"n": <int>, "rows": [[a11, ..., a1n], ..., [an1, ..., ann]]}``
* CSV: ``n`` lines of ``n`` comma-separated decimal reals, no header.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeEntry,
    NonFiniteEntry,
    NotPrimitive,
    NotSquare,
    RowSumOverflow,
    ZeroRow,
)

__all__ = [
    "NonNegativeMatrix",
    "RowDecomposition",
    "validate",
    "check_primitive",
    "decompose",
]


@dataclass(frozen=True)
class NonNegativeMatrix:
    """A validated square non-negative matrix with positive, finite row sums.

    Built by :func:`validate`, it is also primitive.

    Attributes:
        n: matrix size N.
        entries: (N, N) float array, read-only.
    """

    n: int
    entries: np.ndarray


@dataclass(frozen=True)
class RowDecomposition:
    """The factorization A[i, j] = fitness[i] * kernel[i, j].

    Attributes:
        fitness: length-N vector of row sums, strictly positive.
        kernel: (N, N) row-stochastic transition matrix.
    """

    fitness: np.ndarray
    kernel: np.ndarray

    @property
    def n(self) -> int:
        return self.fitness.shape[0]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _saturating_float(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _as_floats(raw) -> np.ndarray:
    """``raw`` as a float array.  An integer beyond the float range becomes
    the signed infinity that ``1e400`` parses to, so it is refused as a
    non-finite entry, as the same number in a CSV file is."""
    try:
        return np.array(raw, dtype=float)
    except OverflowError:
        return np.vectorize(_saturating_float, otypes=[float])(
            np.array(raw, dtype=object))


def validate(raw) -> NonNegativeMatrix:
    """Check an array-like and wrap it as a primitive NonNegativeMatrix.

    The checks run in the order of the errors below, so a matrix with a
    zero row is reported as such even when it is also not primitive.

    Args:
        raw: square array-like of reals.

    Raises:
        NotSquare: ragged, rectangular, or not 2-D input.
        NonFiniteEntry: some entry is NaN, infinite, or an integer too
            large for a float.
        NegativeEntry: some entry is < 0.
        ZeroRow: some row sums to 0, which would leave the transition
            kernel undefined on that row.
        RowSumOverflow: some row sums to infinity, which would leave the
            fitness and every estimate derived from it undefined.
        NotPrimitive: no power of the matrix is entrywise positive.
    """
    try:
        entries = _as_floats(raw)
    except (ValueError, TypeError) as exc:
        raise NotSquare(f"input could not be coerced to a numeric matrix: {exc}")
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1] or entries.size == 0:
        raise NotSquare(f"expected a square matrix, got shape {entries.shape}")

    bad = ~np.isfinite(entries)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise NonFiniteEntry(int(i), int(j), float(entries[i, j]))
    neg = entries < 0
    if neg.any():
        i, j = np.argwhere(neg)[0]
        raise NegativeEntry(int(i), int(j), float(entries[i, j]))
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        row_sums = entries.sum(axis=1)
    zero = row_sums <= 0
    if zero.any():
        raise ZeroRow(int(np.argmax(zero)))
    overflow = ~np.isfinite(row_sums)
    if overflow.any():
        raise RowSumOverflow(int(np.argmax(overflow)))

    matrix = NonNegativeMatrix(n=entries.shape[0], entries=_freeze(entries))
    check_primitive(matrix)
    return matrix


def _levels(pattern: np.ndarray) -> tuple[np.ndarray, int]:
    """Breadth-first distance from state 0 on ``pattern`` (-1 where not
    reached) and the gcd of ``level[i] + 1 - level[j]`` over the edges
    ``i -> j`` out of reached states.  Each row is read once."""
    level = np.full(pattern.shape[0], -1)
    level[0] = depth = period = 0
    while (frontier := level == depth).any():
        hit = pattern[frontier].any(axis=0)
        depth += 1
        level[hit & (level < 0)] = depth
        period = np.gcd.reduce(depth - level[hit], initial=period)
    return level, int(period)


def check_primitive(matrix: NonNegativeMatrix) -> None:
    """Certify that some power of the matrix is entrywise positive.

    That holds exactly when the graph with an edge ``i -> j`` wherever
    ``A[i, j] > 0`` is strongly connected with period 1 (Denardo, Math.
    Oper. Res. 1977): breadth-first search from state 0 reaches every
    state on the graph and on its transpose, and the gcd of ``level[i] +
    1 - level[j]`` over the edges is 1.  Integers only, O(N^2).

    Raises:
        NotPrimitive: naming a state either search misses, or the period.
    """
    pattern = matrix.entries > 0.0
    level, period = _levels(pattern)
    back, _ = _levels(pattern.T)
    for far, defect in ((level, "cannot be reached from"), (back, "cannot reach")):
        if (far < 0).any():
            raise NotPrimitive(f"state {int(np.argmax(far < 0)) + 1} {defect} state 1")
    if period != 1:
        raise NotPrimitive(f"the graph of the matrix has period {period}")


def decompose(matrix: NonNegativeMatrix) -> RowDecomposition:
    """Split A into row sums and a row-stochastic kernel.

    Returns:
        RowDecomposition with ``fitness[i] = sum_j A[i, j]`` and
        ``kernel[i, j] = A[i, j] / fitness[i]``.
    """
    fitness = matrix.entries.sum(axis=1)
    kernel = matrix.entries / fitness[:, None]
    return RowDecomposition(fitness=_freeze(fitness), kernel=_freeze(kernel))
