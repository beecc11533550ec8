"""Deterministic cross-checks: power iteration, the return-weight series,
and the mutation-selection equilibrium residual.

These routines share no code path with the Monte Carlo estimator, so
agreement between the two is meaningful evidence of correctness.

Their settings are module constants: :func:`power_iteration` stops once
successive iterates differ by less than ``POWER_TOL`` in L1 and the
eigen-residual is at most ``POWER_RESIDUAL_TOL * max(1, lam)``, and gives up
after ``POWER_MAX_ITER`` steps; :func:`lemma_partial_sums` sums at most
``LEMMA_MAX_TERMS`` terms and stops early once N consecutive terms fall
below ``LEMMA_STOP_INCREMENT``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Divergence, InvalidArgument, NoConvergence, NotOnSimplex
from .matrix_core import NonNegativeMatrix, decompose

__all__ = [
    "PerronPair",
    "LemmaSeries",
    "EquilibriumResidual",
    "power_iteration",
    "lemma_partial_sums",
    "quasispecies_residual",
]

DIVERGENCE_SLACK = 1e-6
SIMPLEX_TOL = 1e-9
POWER_TOL = 1e-13
POWER_RESIDUAL_TOL = 1e-10
POWER_MAX_ITER = 10**6
LEMMA_MAX_TERMS = 500_000
LEMMA_STOP_INCREMENT = 1e-14


@dataclass(frozen=True)
class PerronPair:
    """Dominant eigenvalue and simplex-normalized left eigenvector.

    ``vector @ A == eigenvalue * vector`` up to ``residual`` in L1.
    """

    eigenvalue: float
    vector: np.ndarray
    residual: float
    iterations: int


@dataclass(frozen=True)
class LemmaSeries:
    """Terms of the first-return weight series at a trial eigenvalue.

    ``terms[0]`` is the direct-return term A[k, k] / lam; ``terms[n]`` for
    n >= 1 sums the weights of return paths of length n + 1 that avoid the
    base state in between.  At the true eigenvalue the partial sums increase
    to 1.  ``tail_ratio`` is the ratio of the last two positive terms, or
    None when fewer than two terms are positive.
    """

    terms: np.ndarray
    partial_sums: np.ndarray
    tail_ratio: float | None


@dataclass(frozen=True)
class EquilibriumResidual:
    """Per-state gap between the two sides of the balance equation
    x_k * (sum_i x_i f(i)) = sum_i x_i f(i) M(i, k)."""

    per_state: np.ndarray
    max_abs: float
    mean_fitness: float


def power_iteration(matrix: NonNegativeMatrix) -> PerronPair:
    """Left-eigenpair by power iteration, normalized to the simplex.

    Each step maps v to v @ A and renormalizes by the L1 norm, which for a
    positive iterate is just the sum, so the normalization factor converges
    to the dominant eigenvalue.  Primitivity guarantees convergence.

    Raises:
        NoConvergence: iterate did not settle within ``POWER_MAX_ITER`` steps
            (signals a nearly degenerate spectrum).
    """
    a = matrix.entries
    n = matrix.n
    v = np.full(n, 1.0 / n)
    lam = 0.0
    for it in range(1, POWER_MAX_ITER + 1):
        w = v @ a
        lam = float(w.sum())
        w = w / lam
        diff = float(np.abs(w - v).sum())
        v = w
        if diff < POWER_TOL:
            residual = float(np.abs(v @ a - lam * v).sum())
            if residual <= POWER_RESIDUAL_TOL * max(1.0, lam):
                v.flags.writeable = False
                return PerronPair(eigenvalue=lam, vector=v,
                                  residual=residual, iterations=it)
    raise NoConvergence(POWER_MAX_ITER)


def lemma_partial_sums(matrix: NonNegativeMatrix, k: int,
                       lam: float) -> LemmaSeries:
    """Evaluate the first-return weight series at trial value ``lam``.

    Let B be the matrix with row and column ``k`` zeroed.  The term for
    return length n >= 2 is ``lam**-n * sum_{i,j != k} A[k,i] B**(n-2)[i,j]
    A[j,k]``, computed by iterating a row vector against B so the cost stays
    O(LEMMA_MAX_TERMS * N^2) and no matrix power is formed.  The spectral
    radius of B lies strictly below the dominant eigenvalue, so at (or
    above) that value the terms decay geometrically; summation stops once N
    consecutive increments fall below ``LEMMA_STOP_INCREMENT`` (zero terms
    can alternate with positive ones up to the longest base-avoiding cycle,
    never longer).

    Raises:
        InvalidArgument: ``lam`` not finite and > 0, or ``k`` not a state;
            the message counts states from 1.
        Divergence: partial sums exceeded 1 + 1e-6, meaning ``lam`` is below
            the true eigenvalue.
    """
    if not 0 < lam < np.inf:
        raise InvalidArgument(
            f"trial eigenvalue must be finite and > 0, got {lam}")
    n = matrix.n
    if not 0 <= k < n:
        raise InvalidArgument(f"base state {k + 1} outside 1..{n}")
    # Dividing A and lam by the same power of two leaves every term's bits
    # as they are; with lam in [1, 2), lam**2 cannot overflow or underflow.
    exponent = int(np.frexp(lam)[1]) - 1
    a = np.ldexp(matrix.entries, -exponent)
    lam = float(np.ldexp(lam, -exponent))

    others = np.arange(n) != k
    b = a[np.ix_(others, others)]
    col = a[others, k]

    terms = [float(a[k, k]) / lam]
    partial = terms[0]
    if partial > 1.0 + DIVERGENCE_SLACK:
        raise Divergence(1, partial)

    # v carries row k of A restricted off-k, pre-divided by lam each step,
    # so term n+2 is simply v @ col after n multiplications by B / lam.
    v = a[k, others] / lam**2
    quiet = 0
    window = max(int(n), 2)
    for _ in range(1, LEMMA_MAX_TERMS):
        term = float(v @ col)
        terms.append(term)
        partial += term
        if partial > 1.0 + DIVERGENCE_SLACK:
            raise Divergence(len(terms), partial)
        quiet = quiet + 1 if term < LEMMA_STOP_INCREMENT else 0
        if quiet >= window:
            break
        v = (v @ b) / lam

    terms_arr = np.asarray(terms)
    positive = np.nonzero(terms_arr > 0.0)[0]
    tail_ratio = None
    if positive.size >= 2:
        tail_ratio = float(terms_arr[positive[-1]] / terms_arr[positive[-2]])
    partial_sums = np.cumsum(terms_arr)
    terms_arr.flags.writeable = False
    partial_sums.flags.writeable = False
    return LemmaSeries(terms=terms_arr, partial_sums=partial_sums,
                       tail_ratio=tail_ratio)


def quasispecies_residual(matrix: NonNegativeMatrix,
                          x: np.ndarray) -> EquilibriumResidual:
    """Residual of the mutation-selection balance equation at ``x``.

    For each state k this compares the loss rate ``x_k * mean_fitness``
    against the creation rate ``sum_i x_i f(i) M(i, k)``.  Both sides agree
    exactly when ``x`` is the dominant left eigenvector, in which case the
    mean fitness equals the dominant eigenvalue.

    Raises:
        NotOnSimplex: ``x`` has a negative or non-finite entry, or does not
            sum to 1.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (matrix.n,):
        raise NotOnSimplex(f"expected shape ({matrix.n},), got {x.shape}")
    bad = ~np.isfinite(x) | (x < 0)
    if bad.any():
        raise NotOnSimplex(
            f"negative or non-finite entry at {int(np.argmax(bad)) + 1}")
    total = float(x.sum())
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise NotOnSimplex(f"entries sum to {total}")

    decomp = decompose(matrix)
    mean_fitness = float(x @ decomp.fitness)
    creation = (x * decomp.fitness) @ decomp.kernel
    per_state = np.abs(x * mean_fitness - creation)
    per_state.flags.writeable = False
    return EquilibriumResidual(per_state=per_state,
                               max_abs=float(per_state.max()),
                               mean_fitness=mean_fitness)
