"""Monte Carlo estimation of the dominant eigenpair from excursion samples.

Each non-truncated excursion ``X_0 = k, ..., X_{tau-1}`` carries, for a trial
eigenvalue ``lam``, the per-step weights

    w_n = prod_{t < n} f(X_t) / lam          (so w_0 = 1 always)

and the return weight ``w_tau``.  The mean return weight over a batch is a
strictly decreasing, continuous function of ``lam`` that equals 1 at the
dominant eigenvalue, so ``lam`` is found by bisection on the row-sum bracket
``[min f, max f]`` using the same fixed batch at every trial value.  The
eigenvector estimate is the visit-weighted tally normalized to the simplex.

A path enters the return weight only through its log fitness sum
``S_p = sum_t log f(X_t)`` and its length ``tau_p``:
``log w_tau = S_p - tau_p log lam``.  One O(visits) pass over the batch
gives these two per-path arrays, after which every bisection step costs
O(paths); no array grows as paths x N.  The solve runs on
``f~ = f / 2**e``, with ``2**e`` the power of two that brings ``max f`` into
``[1, 2)``, and puts ``lam = lam~ * 2**e`` back with ``ldexp``.  Scaling the
matrix by a power of two changes only ``e``, so the estimates scale
exactly.

The per-visit weights are needed only at the final ``lam``, for the
eigenvector tally and the shard jackknife: ``log w_n`` is the running sum
of ``log(f / lam)`` along the path, restarted at path-aligned chunk
boundaries so that its rounding error does not grow with the batch size.
Means of weights use the running-maximum log-sum-exp trick.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_sim import SampleBatch, build_sampler, sample_batch
from .errors import BracketFailure, EmptyBatch, InvalidArgument, TruncationBiasGuard
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
BISECTION_MAX_ITER = 200
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


def _require_paths(batch: SampleBatch) -> int:
    paths = batch.path_count
    if paths == 0:
        raise EmptyBatch()
    return paths


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
            log_sums[p0:p1] = np.add.reduceat(log_scaled[batch.states[v0:v1]],
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
    """
    _require_paths(batch)
    if not lam > 0:
        raise InvalidArgument("trial eigenvalue must be > 0")
    return _PathSums.of(batch, fitness).g(lam)


def estimate_lambda(batch: SampleBatch, fitness: np.ndarray,
                    tol: float = EstimationConfig.tol) -> float:
    """Solve mean-return-weight(lam) = 1 by bisection on [min f, max f].

    The paths do not depend on the trial value, so the target is a
    deterministic, strictly decreasing, continuous function of ``lam`` and
    bisection converges unconditionally.  A constant fitness vector gives a
    degenerate bracket and is returned immediately.

    Raises:
        EmptyBatch: no usable excursions.
        BracketFailure: the batch mean misses 1 at both row-sum bounds
            (defensive; cannot occur when the weights come from the batch's
            own fitness vector, since every factor f/lam is >= 1 at the
            lower bound and <= 1 at the upper one).
    """
    _require_paths(batch)
    _check_tol(tol)
    return _solve_lambda(_PathSums.of(batch, fitness), tol)


def _check_tol(tol: float) -> None:
    if not 0 < tol < 1:
        raise InvalidArgument(f"tol must lie in (0, 1), got {tol}")


def _solve_lambda(sums: _PathSums, tol: float) -> float:
    lo, hi = sums.lo, sums.hi
    if lo == hi:
        return sums.unscale(lo)

    # All comparisons happen on log g, which stays finite even where the
    # mean weight itself would overflow; |g - 1| <= tol is equivalent to
    # log1p(-tol) <= log g <= log1p(tol).
    band_lo = float(np.log1p(-tol))
    band_hi = float(np.log1p(tol))
    log_g_lo = sums.log_g(lo)
    log_g_hi = sums.log_g(hi)
    if log_g_lo < band_lo or log_g_hi > band_hi:
        raise BracketFailure(float(np.exp(log_g_lo)), float(np.exp(log_g_hi)),
                             sums.unscale(lo), sums.unscale(hi))
    if log_g_lo <= band_hi:
        return sums.unscale(lo)
    if log_g_hi >= band_lo:
        return sums.unscale(hi)

    mid = 0.5 * (lo + hi)
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        log_g = sums.log_g(mid)
        if band_lo <= log_g <= band_hi:
            break
        if log_g > 0.0:
            lo = mid
        else:
            hi = mid
    return sums.unscale(mid)


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


def _step_weights(batch: SampleBatch, fitness: np.ndarray,
                  lam: float) -> np.ndarray:
    """Per-visit weights w_n for the whole batch, flat, with w_0 = 1 exact.

    ``log w_n`` is the exclusive running sum of ``log(f / lam)`` along the
    path, restarted at every chunk of :func:`_path_chunks`.  It then spans
    at most ``_CUMSUM_CHUNK`` plus one path's visits, so its rounding error
    is bounded whatever the batch size, and only the result is batch-sized.
    """
    log_ratio = np.log(fitness / lam)
    starts = batch.offsets
    weights = np.empty(batch.states.shape[0])
    for p0, p1, v0, v1 in _path_chunks(batch):
        per_visit = log_ratio[batch.states[v0:v1]]
        log_w = np.cumsum(per_visit)
        log_w -= per_visit
        log_w -= np.repeat(log_w[starts[p0:p1] - v0], batch.lengths[p0:p1])
        np.exp(log_w, out=weights[v0:v1])
    return weights


def _tally(states: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Per-state sums of ``weights``, added in visit order.

    ``np.add.at`` gives bitwise the sums of ``np.bincount(states, weights)``
    without its batch-sized temporary.
    """
    sums = np.zeros(n)
    np.add.at(sums, states, weights)
    return sums


def _eigenvector(batch: SampleBatch, weights: np.ndarray,
                 n: int) -> np.ndarray:
    numerators = _tally(batch.states, weights, n)
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
    _require_paths(batch)
    if not lam > 0:
        raise InvalidArgument("trial eigenvalue must be > 0")
    return _eigenvector(batch, _step_weights(batch, fitness, lam),
                        fitness.shape[0])


def _jackknife_applies(batch: SampleBatch) -> bool:
    return np.count_nonzero(batch.shard_path_counts) >= 2


def _jackknife(batch: SampleBatch, weights: np.ndarray, n: int) -> np.ndarray:
    path_bounds = np.concatenate(([0], np.cumsum(batch.shard_path_counts)))
    visit_bounds = np.concatenate(([0], np.cumsum(batch.lengths)))
    nums = []
    for p0, p1 in zip(path_bounds[:-1], path_bounds[1:]):
        if p0 == p1:
            continue
        v0, v1 = visit_bounds[p0], visit_bounds[p1]
        nums.append(_tally(batch.states[v0:v1], weights[v0:v1], n))
    nums = np.asarray(nums)
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
    _require_paths(batch)
    if not _jackknife_applies(batch):
        return None
    return _jackknife(batch, _step_weights(batch, fitness, lam),
                      fitness.shape[0])


def run_estimation(matrix: NonNegativeMatrix,
                   config: EstimationConfig = EstimationConfig()) -> EstimateReport:
    """Full pipeline: decompose, sample, solve, tally, report.

    Deterministic for a fixed config.  A 1x1 matrix takes the same path:
    every excursion is the unit self-loop, so the bracket collapses to
    ``f[0]`` and every path weighs 1.

    Raises:
        AllTruncated, BracketFailure: propagated from sampling/solving.
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
    # One tally at the final lam feeds the eigenvector and the jackknife.
    weights = _step_weights(batch, decomp.fitness, lam)
    u = _eigenvector(batch, weights, matrix.n)
    dispersion = (_jackknife(batch, weights, matrix.n)
                  if _jackknife_applies(batch) else None)
    return EstimateReport(
        lambda_hat=lam,
        u_hat=u,
        truncated_count=batch.truncated_count,
        g_residual=residual,
        dispersion=dispersion,
    )
