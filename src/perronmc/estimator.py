"""Monte Carlo estimation of the dominant eigenpair from excursion samples.

Each non-truncated excursion ``X_0 = k, ..., X_{tau-1}`` carries, for a trial
eigenvalue ``lam``, the per-step weights

    w_n = prod_{t < n} f(X_t) / lam          (so w_0 = 1 always)

and the return weight ``w_tau``.  The mean return weight over a batch is a
strictly decreasing, continuous function of ``lam`` that equals 1 at the
dominant eigenvalue, so ``lam`` is found by bisection on the row-sum bracket
``[min f, max f]`` using the same fixed batch at every trial value.  Every
factor ``f / lam`` is >= 1 at ``min f`` and <= 1 at ``max f``, so the
bracket holds the root, and bisection stops only at ``tol`` or at float
resolution.  The eigenvector estimate is the visit-weighted tally
normalized to the simplex.

A path enters the return weight only through its log fitness sum
``S_p = sum_t log f(X_t)`` and its length ``tau_p``:
``log w_tau = S_p - tau_p log lam``.  One O(visits) pass over the batch
gives these two per-path arrays, after which every bisection step costs
O(paths); no array grows as paths x N.  The solve runs on
``f~ = f / 2**e``, with ``2**e`` the power of two that brings ``max f`` into
``[1, 2)``, and puts ``lam = lam~ * 2**e`` back with ``ldexp``.  Scaling the
matrix by a power of two changes only ``e``, so the estimates scale
exactly.

The per-visit weights are needed only at the final ``lam``.  One pass
over the batch, in path-aligned chunks of a few thousand visits, adds them
into the eigenvector tally and the per-shard tallies of the jackknife, and
holds no batch-sized array.  ``log w_n`` is the running sum of
``log(f / lam)`` along the path, restarted at every chunk so that its
rounding error does not grow with the batch size.  Means of weights use
the running-maximum log-sum-exp trick.  Both per-visit passes cast each
chunk's int32 states to intp once, because numpy gathers and ``np.add.at``
run slower on int32 indices; the copy is chunk-sized.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .chain_sim import SampleBatch, build_sampler, sample_batch
from .errors import (EmptyBatch, InvalidArgument, TruncationBiasGuard,
                     check_trial)
from .matrix_core import NonNegativeMatrix, decompose

__all__ = [
    "EstimateReport",
    "EstimationConfig",
    "g_hat",
    "estimate_lambda",
    "estimate_u",
    "shard_dispersion",
    "run_estimation",
]

TRUNCATION_BIAS_LIMIT = 1e-3
# Visits per block of the running sum behind the per-visit weights.
_CUMSUM_CHUNK = 4096


@dataclass(frozen=True)
class EstimateReport:
    """Result of a full estimation run with diagnostics."""

    lambda_hat: float
    u_hat: np.ndarray
    truncated_count: int
    g_residual: float
    dispersion: np.ndarray | None


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs for :func:`run_estimation`; defaults suit desk-scale matrices.

    These field defaults are the only copy of the sampling defaults: the
    CLI's flags read them from here.
    """

    base_state: int = 0
    samples: int = 100_000
    seed: int = 0
    cap: int = 1_000_000
    shards: int = 1
    tol: float = 1e-10


def _require_paths(batch: SampleBatch) -> None:
    if batch.path_count == 0:
        raise EmptyBatch()


def _require_trial(batch: SampleBatch, lam: float) -> None:
    """The checks of every function that weighs the batch at a given
    ``lam``: the batch holds paths, and ``lam`` is finite and > 0."""
    _require_paths(batch)
    check_trial(lam)


@dataclass(frozen=True)
class _PathSums:
    """The batch as the lam solve sees it: two numbers per path.

    Attributes:
        exponent: ``e`` with ``f = f~ * 2**e`` and ``max f~`` in [1, 2).
        lo, hi: the row-sum bracket ``[min f~, max f~]``.
        log_sums: ``S_p = sum_t log f~(X_t)`` per path.
        lengths: ``tau_p`` per path, as floats.
        work: per-path scratch for :meth:`log_g`, so that a bisection step
            allocates nothing; otherwise every step would allocate, and
            page in, several path-sized temporaries.
    """

    exponent: int
    lo: float
    hi: float
    log_sums: np.ndarray
    lengths: np.ndarray
    work: np.ndarray

    @classmethod
    def of(cls, batch: SampleBatch, fitness: np.ndarray) -> "_PathSums":
        exponent = int(np.frexp(fitness.max())[1]) - 1
        scaled = np.ldexp(fitness, -exponent)
        log_scaled = np.log(scaled)
        starts = batch.offsets
        log_sums = np.empty(starts.shape[0])
        for p0, p1, v0, v1 in _path_chunks(batch):
            states = batch.states[v0:v1].astype(np.intp)
            log_sums[p0:p1] = np.add.reduceat(log_scaled[states],
                                              starts[p0:p1] - v0)
        return cls(exponent, float(scaled.min()), float(scaled.max()),
                   log_sums, batch.lengths.astype(float),
                   np.empty_like(log_sums))

    def log_g(self, lam_scaled: float) -> float:
        """log mean return weight at ``lam = lam_scaled * 2**exponent``,
        by the max-shifted log-sum-exp of ``S_p - tau_p log lam~``."""
        logs = self.work
        np.multiply(self.lengths, np.log(lam_scaled), out=logs)
        np.subtract(self.log_sums, logs, out=logs)
        m = logs.max()
        logs -= m
        np.exp(logs, out=logs)
        return float(m + np.log(logs.sum()) - np.log(logs.shape[0]))

    def g(self, lam: float) -> float:
        """Mean return weight at ``lam``."""
        return float(np.exp(self.log_g(np.ldexp(lam, -self.exponent))))

    def unscale(self, lam_scaled: float) -> float:
        return float(np.ldexp(lam_scaled, self.exponent))


def g_hat(batch: SampleBatch, fitness: np.ndarray, lam: float) -> float:
    """Mean return weight of the batch at trial eigenvalue ``lam``.

    Strictly decreasing in ``lam`` for a fixed batch; equals 1 (up to Monte
    Carlo error) at the dominant eigenvalue.

    Raises:
        EmptyBatch: no non-truncated excursion in the batch.
        InvalidArgument: ``lam`` is not finite and > 0.
    """
    _require_trial(batch, lam)
    return _PathSums.of(batch, fitness).g(lam)


def estimate_lambda(batch: SampleBatch, fitness: np.ndarray,
                    tol: float = EstimationConfig.tol) -> float:
    """Solve mean-return-weight(lam) = 1 by bisection on [min f, max f].

    The paths do not depend on the trial value, so the target is a
    deterministic, strictly decreasing, continuous function of ``lam`` and
    the bracket always holds the root.  Bisection stops at the tolerance or
    at float resolution, whichever comes first; a constant fitness vector
    gives a degenerate bracket, whose one value is returned.

    Raises:
        EmptyBatch: no usable excursions.
        InvalidArgument: ``tol`` outside (0, 1).
    """
    _require_paths(batch)
    _check_tol(tol)
    return _solve_lambda(_PathSums.of(batch, fitness), tol)


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:
        raise InvalidArgument(f"tol must lie in (0, 1), got {tol}")


def _solve_lambda(sums: _PathSums, tol: float) -> float:
    """Bisect ``[lo, hi]`` until ``|g - 1| <= tol`` at the midpoint, or
    until the midpoint is no longer strictly inside the bracket: at most
    1,074 evaluations of log g, on the widest bracket ``[5e-324, 2)``.

    Comparisons happen on log g, which stays finite even where the mean
    weight itself would overflow: ``log1p(-tol) <= log g <= log1p(tol)``.
    """
    band_lo = float(np.log1p(-tol))
    band_hi = float(np.log1p(tol))
    lo, hi = sums.lo, sums.hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return sums.unscale(mid)
        log_g = sums.log_g(mid)
        if band_lo <= log_g <= band_hi:
            return sums.unscale(mid)
        if log_g > 0.0:
            lo = mid
        else:
            hi = mid


def _path_chunks(batch: SampleBatch) -> list[tuple[int, int, int, int]]:
    """The batch as chunks of whole paths, ``(p0, p1, v0, v1)``.

    A new chunk starts at the first path start in every block of
    ``_CUMSUM_CHUNK`` visits, so a chunk holds at most ``_CUMSUM_CHUNK``
    plus one path's visits.  Per-visit passes that work chunk by chunk hold
    no batch-sized temporary.
    """
    starts = batch.offsets
    blocks = np.arange(0, batch.states.shape[0], _CUMSUM_CHUNK)
    first = np.unique(np.searchsorted(starts, blocks))
    first = first[first < starts.shape[0]]
    paths = np.append(first, starts.shape[0]).tolist()
    visits = np.append(starts[first], batch.states.shape[0]).tolist()
    return list(zip(paths[:-1], paths[1:], visits[:-1], visits[1:]))


def _chunk_weights(batch: SampleBatch, fitness: np.ndarray, lam: float
                   ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(p0, p1, states, weights)`` for each chunk of
    :func:`_path_chunks`: the per-visit weights w_n, with w_0 = 1 exact,
    from the running sum of ``log(f / lam)`` restarted at the chunk."""
    log_ratio = np.log(fitness / lam)
    for p0, p1, v0, v1 in _path_chunks(batch):
        states = batch.states[v0:v1].astype(np.intp)
        per_visit = log_ratio[states]
        log_w = np.cumsum(per_visit)
        log_w -= per_visit
        log_w -= np.repeat(log_w[batch.offsets[p0:p1] - v0],
                           batch.lengths[p0:p1])
        yield p0, p1, states, np.exp(log_w, out=log_w)


def _shard_ends(batch: SampleBatch) -> np.ndarray | None:
    """One past the last path of each shard that holds paths, or None when
    fewer than two do and the jackknife does not apply."""
    counts = batch.shard_path_counts[batch.shard_path_counts > 0]
    return np.cumsum(counts) if counts.shape[0] >= 2 else None


def _visit_tallies(batch: SampleBatch, fitness: np.ndarray,
                   lam: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-state sums of the weights at ``lam``, over the batch and per
    shard that holds paths (None when fewer than two do), in one pass.

    ``np.add.at`` adds in index order and chunks come in visit order, so
    every sum is bitwise the ``np.bincount`` of its visits' weights.  The
    per-shard table is indexed flat as ``shard * N + state``.
    """
    n = fitness.shape[0]
    ends = _shard_ends(batch)
    totals = np.zeros(n)
    by_shard = None if ends is None else np.zeros((ends.shape[0], n))
    for p0, p1, states, weights in _chunk_weights(batch, fitness, lam):
        np.add.at(totals, states, weights)
        if by_shard is not None:
            shard = np.searchsorted(ends, np.arange(p0, p1), side="right")
            flat = np.repeat(shard * n, batch.lengths[p0:p1]) + states
            np.add.at(by_shard.reshape(-1), flat, weights)
    return totals, by_shard


def _eigenvector(numerators: np.ndarray) -> np.ndarray:
    u = numerators / numerators.sum()
    u.flags.writeable = False
    return u


def estimate_u(batch: SampleBatch, fitness: np.ndarray,
               lam: float) -> np.ndarray:
    """Eigenvector estimate: normalized visit-weight tally, on the simplex.

    The tally at the base state equals the non-truncated path count
    exactly: w_0 = 1 on every path and the base state is never revisited
    inside an excursion.  So ``u[k]`` is bitwise the reciprocal mean total
    path weight.
    """
    _require_trial(batch, lam)
    return _eigenvector(_visit_tallies(batch, fitness, lam)[0])


def _jackknife(nums: np.ndarray) -> np.ndarray:
    """Delete-one-shard standard errors from the per-shard tallies."""
    dens = nums.sum(axis=1)
    total_num = nums.sum(axis=0)
    total_den = dens.sum()
    leave_out = (total_num[None, :] - nums) / (total_den - dens)[:, None]
    m = leave_out.shape[0]
    centered = leave_out - leave_out.mean(axis=0)
    se = np.sqrt((m - 1) / m * (centered**2).sum(axis=0))
    se.flags.writeable = False
    return se


def shard_dispersion(batch: SampleBatch, fitness: np.ndarray,
                     lam: float) -> np.ndarray | None:
    """Delete-one-shard jackknife standard errors for the eigenvector.

    Returns None when fewer than two shards contain paths; the figure is
    indicative plumbing, not a calibrated confidence interval.
    """
    _require_trial(batch, lam)
    if _shard_ends(batch) is None:
        return None
    return _jackknife(_visit_tallies(batch, fitness, lam)[1])


def run_estimation(matrix: NonNegativeMatrix,
                   config: EstimationConfig = EstimationConfig()) -> EstimateReport:
    """Full pipeline: decompose, sample, solve, tally, report.

    Deterministic for a fixed config.  A 1x1 matrix takes the same path:
    every excursion is the unit self-loop, so the bracket collapses to
    ``f[0]`` and every path weighs 1.

    Raises:
        AllTruncated: propagated from sampling.
        InvalidArgument: ``tol`` outside (0, 1), before any sampling.
        TruncationBiasGuard: more than 0.1% of attempts truncated.
    """
    _check_tol(config.tol)
    decomp = decompose(matrix)
    sampler = build_sampler(decomp)
    batch = sample_batch(sampler, config.base_state, config.samples,
                         config.seed, config.cap, config.shards)
    if batch.truncated_count > TRUNCATION_BIAS_LIMIT * config.samples:
        raise TruncationBiasGuard(batch.truncated_count, config.samples,
                                  TRUNCATION_BIAS_LIMIT)

    sums = _PathSums.of(batch, decomp.fitness)
    lam = _solve_lambda(sums, config.tol)
    residual = abs(sums.g(lam) - 1.0)
    # One pass at the final lam feeds the eigenvector and the jackknife.
    totals, by_shard = _visit_tallies(batch, decomp.fitness, lam)
    u = _eigenvector(totals)
    dispersion = None if by_shard is None else _jackknife(by_shard)
    return EstimateReport(
        lambda_hat=lam,
        u_hat=u,
        truncated_count=batch.truncated_count,
        g_residual=residual,
        dispersion=dispersion,
    )
