"""Deterministic cross-checks: power iteration, the return-weight series
(the estimator's excursion from the base state, run as a weight vector
that is killed where it returns), and the mutation-selection equilibrium
residual.

These routines share no code path with the Monte Carlo estimator, so
agreement between the two is meaningful evidence of correctness.

Their settings are module constants: :func:`power_iteration` stops once
successive iterates differ by less than ``POWER_TOL`` in L1, refuses the
iterate unless its eigen-residual is then at most
``POWER_RESIDUAL_TOL * lam``, and gives up after ``POWER_MAX_ITER``
steps; :func:`lemma_partial_sums` stops once the weight still to return
is certified below ``LEMMA_STOP_INCREMENT``, and gives up after
``LEMMA_MAX_TERMS`` terms.  Refusing or giving up raises
:class:`NoConvergence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (Divergence, NoConvergence, NotOnSimplex,
                     check_base_state, check_trial)
from .matrix_core import NonNegativeMatrix, _freeze, decompose, unit_scale

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

    ``terms[n]`` is the weight that first returns to the base state k at
    step n + 1: the weights of the paths k -> ... -> k of that length that
    avoid k in between, over lam**(n + 1); ``terms[0]`` is A[k, k] / lam.
    At the true eigenvalue the partial sums increase to 1, and the terms
    left out after the last one sum to at most ``LEMMA_STOP_INCREMENT``.
    ``tail_ratio`` is the ratio of the last two positive terms, or None
    when fewer than two terms are positive or the ratio passes the float
    range.
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

    The iteration runs on A divided by the power of two that brings its
    largest entry into [1, 2), so that entries near the smallest float do
    not underflow in v @ A.  Dividing by a power of two leaves every
    iterate's bits as they are wherever nothing underflows, and the
    eigenvalue and residual are scaled back exactly, so the eigenvalue of
    ``2**k * A`` is ``2**k`` times that of ``A`` and the vector is the
    same.

    Once successive iterates settle, the residual ``|v @ A - lam v|`` is
    tested against ``lam``, both in the scaled units of the loop.  Without
    rounding it is then of the order of ``POWER_TOL`` times ``lam``; above
    ``POWER_RESIDUAL_TOL`` times it, the iterate settled only because
    products of the entries underflowed, so it is refused at once.

    Raises:
        NoConvergence: iterate did not settle within ``POWER_MAX_ITER`` steps
            (signals a nearly degenerate spectrum), or its sum underflowed
            to zero, or it settled with a residual above
            ``POWER_RESIDUAL_TOL`` times its eigenvalue (entries too far
            below the largest one to iterate).
    """
    n = matrix.n
    a, exponent = unit_scale(matrix.entries)
    v = np.full(n, 1.0 / n)
    for it in range(1, POWER_MAX_ITER + 1):
        w = v @ a
        lam = float(w.sum())
        if not 0.0 < lam < math.inf:
            raise NoConvergence(it, (
                f"power iteration underflowed: iterate {it} sums to {lam}; "
                "the entries are too small to iterate"))
        w = w / lam
        diff = float(np.abs(w - v).sum())
        v = w
        if diff < POWER_TOL:
            residual = float(np.abs(v @ a - lam * v).sum())
            if residual > POWER_RESIDUAL_TOL * lam:
                raise NoConvergence(it, (
                    f"power iteration underflowed: iterate {it} settled "
                    f"with a residual {residual / lam:g} times its "
                    "eigenvalue; the entries are too small to iterate"))
            return PerronPair(eigenvalue=float(np.ldexp(lam, exponent)),
                              vector=_freeze(v),
                              residual=float(np.ldexp(residual, exponent)),
                              iterations=it)
    raise NoConvergence(POWER_MAX_ITER)


def lemma_partial_sums(matrix: NonNegativeMatrix, k: int,
                       lam: float) -> LemmaSeries:
    """Evaluate the first-return weight series at trial value ``lam``.

    One excursion from ``k``, run as a row vector: it starts at row ``k``
    of A / lam, and each step reads its entry at ``k`` as the next term,
    kills that entry, and moves the rest by A / lam, so the cost stays
    O(LEMMA_MAX_TERMS * N^2) and no matrix power is formed.  With ``h``
    the right Perron vector of A, a kill removes the term times ``h[k]``
    from ``v @ h`` and a step scales ``v @ h`` by ``rho(A) / lam <= 1`` at
    or above the dominant eigenvalue, so the terms still to come sum to at
    most ``(v @ h) / h[k]``; summation stops once that bound, read right
    after the kill, is at most ``LEMMA_STOP_INCREMENT``.

    Raises:
        InvalidArgument: ``lam`` not finite and > 0, or ``k`` not a state;
            the message counts states from 1.
        Divergence: partial sums exceeded 1 + ``DIVERGENCE_SLACK``, meaning
            ``lam`` is below the true eigenvalue.
        NoConvergence: the tail bound stayed above ``LEMMA_STOP_INCREMENT``
            for ``LEMMA_MAX_TERMS`` terms, or power iteration did not settle.
    """
    check_trial(lam)
    check_base_state(k, matrix.n)
    # Dividing A and lam by the same power of two leaves every term's bits
    # as they are and brings lam into [1, 2) whatever the matrix's scale.
    lam, exponent = unit_scale(lam)
    lam = float(lam)
    a = np.ldexp(matrix.entries, -exponent)
    h = power_iteration(NonNegativeMatrix(n=matrix.n, entries=a.T)).vector

    terms = []
    partial = 0.0
    v = a[k] / lam
    for _ in range(LEMMA_MAX_TERMS):
        term = float(v[k])
        terms.append(term)
        partial += term
        if partial > 1.0 + DIVERGENCE_SLACK:
            raise Divergence(len(terms), partial, DIVERGENCE_SLACK)
        v[k] = 0.0
        if v @ h <= LEMMA_STOP_INCREMENT * h[k]:
            break
        v = (v @ a) / lam
    else:
        raise NoConvergence(LEMMA_MAX_TERMS, (
            f"the series did not settle within the cap of {LEMMA_MAX_TERMS} "
            f"terms (partial sum {partial}); the weight still to return "
            "decays too slowly"))

    terms_arr = np.asarray(terms)
    # Python floats: a ratio past the float range is inf, with no warning.
    last = terms_arr[terms_arr > 0.0][-2:].tolist()
    ratio = last[1] / last[0] if len(last) == 2 else math.inf
    return LemmaSeries(terms=_freeze(terms_arr),
                       partial_sums=_freeze(np.cumsum(terms_arr)),
                       tail_ratio=ratio if ratio < math.inf else None)


def quasispecies_residual(matrix: NonNegativeMatrix,
                          x: np.ndarray) -> EquilibriumResidual:
    """Residual of the mutation-selection balance equation at ``x``.

    For each state k this compares the loss rate ``x_k * mean_fitness``
    against the creation rate ``sum_i x_i f(i) M(i, k)``.  Both sides agree
    exactly when ``x`` is the dominant left eigenvector, in which case the
    mean fitness equals the dominant eigenvalue.

    Both sides are computed on the fitness divided by the power of two that
    brings its largest entry into [1, 2), as :func:`power_iteration` does,
    and scaled back exactly, so the rounding stays relative to the answer
    even at the bottom of the float range, and the residuals of
    ``2**k * A`` are ``2**k`` times those of ``A``.

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
    fitness, exponent = unit_scale(decomp.fitness)
    mean_fitness = float(x @ fitness)
    creation = (x * fitness) @ decomp.kernel
    per_state = np.ldexp(np.abs(x * mean_fitness - creation), exponent)
    return EquilibriumResidual(per_state=_freeze(per_state),
                               max_abs=float(per_state.max()),
                               mean_fitness=float(np.ldexp(mean_fitness,
                                                           exponent)))
