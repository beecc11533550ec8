"""Monte Carlo estimation of the dominant eigenpair from excursion samples.

Each non-truncated excursion ``X_0 = k, ..., X_{tau-1}`` carries, for a trial
eigenvalue ``lam``, the per-step weights

    w_n = prod_{t < n} f(X_t) / lam          (so w_0 = 1 always)

and the return weight ``w_tau``.  The mean return weight over a batch is a
strictly decreasing, continuous function of ``lam`` that equals 1 at the
dominant eigenvalue, so ``lam`` is found by bisection on the row-sum bracket
``[min f, max f]`` using the same fixed batch at every trial value.  The
eigenvector estimate is the visit-weighted tally normalized to the simplex.

Everything is carried in log space: a path contributes
``sum_t log(f(X_t) / lam)``, accumulated per state-visit count, and sums of
weights use the running-maximum log-sum-exp trick.  Evaluating logs of the
ratios ``f/lam`` (rather than ``log f`` and ``log lam`` separately) makes the
estimates exactly invariant under scaling the matrix by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain_sim import SampleBatch, build_sampler, sample_batch
from .errors import BracketFailure, EmptyBatch, InvalidArgument, TruncationBiasGuard
from .matrix_core import NonNegativeMatrix, check_primitive, decompose

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


@dataclass(frozen=True)
class EstimateReport:
    """Result of a full estimation run with diagnostics."""

    lambda_hat: float
    u_hat: np.ndarray
    base_state: int
    sample_count: int
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


def _state_visit_counts(batch: SampleBatch, n_states: int) -> np.ndarray:
    """(paths, N) matrix of visit counts per state for each excursion."""
    paths = batch.path_count
    path_idx = np.repeat(np.arange(paths, dtype=np.int64), batch.lengths)
    flat = np.bincount(path_idx * n_states + batch.states,
                       minlength=paths * n_states)
    return flat.reshape(paths, n_states).astype(float)


def _log_mean_exp(logs: np.ndarray) -> float:
    m = logs.max()
    return float(m + np.log(np.exp(logs - m).sum()) - np.log(logs.shape[0]))


def _log_g_from_counts(counts: np.ndarray, fitness: np.ndarray,
                       lam: float) -> float:
    """log of the batch mean return weight; never materializes the weights."""
    log_ratio = np.log(fitness / lam)
    return _log_mean_exp(counts @ log_ratio)


def _g_from_counts(counts: np.ndarray, fitness: np.ndarray, lam: float) -> float:
    return float(np.exp(_log_g_from_counts(counts, fitness, lam)))


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
    counts = _state_visit_counts(batch, fitness.shape[0])
    return _g_from_counts(counts, fitness, lam)


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
    if not tol > 0:
        raise InvalidArgument("tol must be > 0")
    lo = float(fitness.min())
    hi = float(fitness.max())
    if lo == hi:
        return lo

    # All comparisons happen on log g, which stays finite even where the
    # mean weight itself would overflow; |g - 1| <= tol is equivalent to
    # log1p(-tol) <= log g <= log1p(tol).
    band_lo = float(np.log1p(-tol))
    band_hi = float(np.log1p(tol))
    counts = _state_visit_counts(batch, fitness.shape[0])
    log_g_lo = _log_g_from_counts(counts, fitness, lo)
    log_g_hi = _log_g_from_counts(counts, fitness, hi)
    if log_g_lo < band_lo or log_g_hi > band_hi:
        raise BracketFailure(float(np.exp(log_g_lo)), float(np.exp(log_g_hi)),
                             lo, hi)
    if log_g_lo <= band_hi:
        return lo
    if log_g_hi >= band_lo:
        return hi

    mid = 0.5 * (lo + hi)
    for _ in range(BISECTION_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        log_g = _log_g_from_counts(counts, fitness, mid)
        if band_lo <= log_g <= band_hi:
            return mid
        if log_g > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def _step_weights(batch: SampleBatch, fitness: np.ndarray,
                  lam: float) -> np.ndarray:
    """Per-visit weights w_n for the whole batch, flat, with w_0 = 1 exact."""
    log_ratio = np.log(fitness / lam)
    per_visit = log_ratio[batch.states]
    running = np.cumsum(per_visit)
    exclusive = running - per_visit
    starts = batch.offsets
    base = exclusive[starts]
    log_w = exclusive - np.repeat(base, batch.lengths)
    return np.exp(log_w)


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
    weights = _step_weights(batch, fitness, lam)
    numerators = np.bincount(batch.states, weights=weights,
                             minlength=fitness.shape[0])
    u = numerators / numerators.sum()
    u.flags.writeable = False
    return u


def shard_dispersion(batch: SampleBatch, fitness: np.ndarray,
                     lam: float) -> np.ndarray | None:
    """Delete-one-shard jackknife standard errors for the eigenvector.

    Returns None when fewer than two shards contain paths; the figure is
    indicative plumbing, not a calibrated confidence interval.
    """
    _require_paths(batch)
    n = fitness.shape[0]
    weights = _step_weights(batch, fitness, lam)

    path_bounds = np.concatenate(([0], np.cumsum(batch.shard_path_counts)))
    visit_bounds = np.concatenate(([0], np.cumsum(batch.lengths)))
    nums = []
    for s in range(batch.shards):
        p0, p1 = path_bounds[s], path_bounds[s + 1]
        if p0 == p1:
            continue
        v0, v1 = visit_bounds[p0], visit_bounds[p1]
        nums.append(np.bincount(batch.states[v0:v1],
                                weights=weights[v0:v1], minlength=n))
    if len(nums) < 2:
        return None
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


def run_estimation(matrix: NonNegativeMatrix,
                   config: EstimationConfig = EstimationConfig()) -> EstimateReport:
    """Full pipeline: certify, decompose, sample, solve, tally, report.

    Deterministic for a fixed config.  A 1x1 matrix short-circuits: the
    excursion is the unit self-loop, so the eigenpair is (f[0], (1,)).

    Raises:
        NotPrimitive: propagated from the primitivity check.
        AllTruncated, BracketFailure: propagated from sampling/solving.
        TruncationBiasGuard: more than 0.1% of attempts truncated.
    """
    check_primitive(matrix)
    decomp = decompose(matrix)
    if matrix.n == 1:
        u = np.array([1.0])
        u.flags.writeable = False
        return EstimateReport(
            lambda_hat=float(decomp.fitness[0]),
            u_hat=u,
            base_state=config.base_state,
            sample_count=0,
            truncated_count=0,
            g_residual=0.0,
            dispersion=None,
        )

    sampler = build_sampler(decomp)
    batch = sample_batch(sampler, config.base_state, config.samples,
                         config.seed, config.cap, config.shards)
    if batch.truncated_count > TRUNCATION_BIAS_LIMIT * config.samples:
        raise TruncationBiasGuard(batch.truncated_count, config.samples,
                                  TRUNCATION_BIAS_LIMIT)

    lam = estimate_lambda(batch, decomp.fitness, config.tol)
    u = estimate_u(batch, decomp.fitness, lam)
    residual = abs(g_hat(batch, decomp.fitness, lam) - 1.0)
    dispersion = shard_dispersion(batch, decomp.fitness, lam)
    return EstimateReport(
        lambda_hat=lam,
        u_hat=u,
        base_state=config.base_state,
        sample_count=config.samples,
        truncated_count=batch.truncated_count,
        g_residual=residual,
        dispersion=dispersion,
    )
