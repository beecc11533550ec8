"""Monte Carlo estimation of the dominant eigenpair from excursion samples.

Each non-truncated excursion ``X_0 = k, ..., X_{tau-1}`` carries, for a trial
eigenvalue ``lam``, the per-step weights

    w_n = prod_{t < n} f(X_t) / lam          (so w_0 = 1 always)

and the return weight ``w_tau``.  The mean return weight over a batch is a
strictly decreasing, continuous function of ``lam`` that equals 1 at the
dominant eigenvalue, and the same fixed batch serves every trial value.
Every factor ``f / lam`` is >= 1 at ``min f`` and <= 1 at ``max f``, so
the row-sum bracket ``[min f, max f]`` holds the root.  The eigenvector
estimate is the visit-weighted tally normalized to the simplex.

A path enters the return weight only through its log fitness sum
``S_p = sum_t log f(X_t)`` and its length ``tau_p``:
``log w_tau = S_p - tau_p log lam``.  The walk takes both as it goes
(:class:`~perronmc.chain_sim.SampleBatch`), so the solve makes no pass
over the visits: every evaluation of the mean return weight costs
O(paths), and no array grows as paths x N.

``lam`` is found by Newton's method on ``t = log lam`` from the low end of
the bracket, with a bisection fallback.  ``log g(t) = log mean_p exp(S_p -
tau_p t)`` is a log-sum-exp of affine functions of ``t``, so it is convex,
and it decreases with slope ``-sum_p tau_p W_p / sum_p W_p <= -1``, where
``W_p`` is the path's return weight.  A tangent of a convex function lies
below it, so every Newton step from below the root lands at or below the
root: from ``t = log min f`` the iterates rise to the root, quadratically
near it, in a handful of steps.  Where rounding stops a step from rising,
or would carry it past the bracket, the solve bisects the bracket it has
narrowed so far, in ``t``, and stops at ``tol`` or at float resolution.
The solve runs on
``f~ = f / 2**e``, with ``2**e`` the power of two that brings ``max f`` into
``[1, 2)``, and puts ``lam = lam~ * 2**e`` back with ``ldexp``.  Scaling the
matrix by a power of two changes only ``e``, so the estimates scale
exactly.  Row sums may span more than the float range: an ``f~`` below
the normal range, which ``ldexp`` would round to a few bits or to 0,
takes its log from ``f = m * 2**x`` as ``log m + (x - e) log 2``, and
every other entry keeps the bits of ``log f~``.  A root ``lam~`` below
the normal range holds too few bits to report and is refused with
:class:`~perronmc.errors.EigenvalueUnderflow`.

At the final ``lam``, :meth:`~perronmc.chain_sim.SampleBatch.tally` at
``t = log lam~`` gives the eigenvector tally and the jackknife's
per-shard tallies in one pass: one product over the per-step sums the
walk kept while walkers were many, and a replay of the recorded tail.
It weighs visit ``n`` by ``exp(S_n - n t)`` from the walk's own running
``S_n``, the form the solve takes a path's return weight in.  A tally
that sums past the float range, as it can when the base state's
coordinate lies far below another state's, is refused with
:class:`~perronmc.errors.TallyOverflow`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain_sim import SampleBatch, build_sampler, sample_batch
from .errors import (EigenvalueUnderflow, InvalidArgument, TallyOverflow,
                     TruncationBiasGuard, check_counts, check_integers,
                     check_real, check_trial)
from .matrix_core import (NonNegativeMatrix, _freeze, _log_scaled,
                          decompose, log_unit_scale)

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
# The smallest normal float.
_TINY = float(np.finfo(float).tiny)
# The floor of a max-shifted log weight: exp(-708) is still normal, and np.exp
# runs many times slower on subnormal results.  A weight this small is lost
# in a sum that holds the largest weight, 1.
_LOG_WEIGHT_FLOOR = -708.0


@dataclass(frozen=True)
class EstimateReport:
    """Result of a full estimation run with diagnostics."""

    lambda_hat: float
    u_hat: np.ndarray
    truncated_count: int
    g_residual: float
    dispersion: np.ndarray | None


def _check_tol(tol: float) -> None:
    check_real("tol", tol)
    if not 0 < tol < 1:
        raise InvalidArgument(f"tol must lie in (0, 1), got {tol}")


@dataclass(frozen=True)
class EstimationConfig:
    """Knobs for :func:`run_estimation`; defaults suit desk-scale matrices.

    These field defaults are the only copy of the sampling defaults: the
    CLI's flags read them from here.  A config refuses its own bad values
    when it is built, so nothing is sampled for one that would be refused;
    the base state is checked against the matrix by the sampler.

    Raises:
        InvalidArgument: ``tol`` not a number in (0, 1), ``samples``,
            ``shards`` or ``cap`` below 1, or another field not an integer.
    """

    base_state: int = 0
    samples: int = 100_000
    seed: int = 0
    cap: int = 1_000_000
    shards: int = 1
    tol: float = 1e-10

    def __post_init__(self) -> None:
        _check_tol(self.tol)
        check_counts(samples=self.samples, shards=self.shards, cap=self.cap)
        check_integers(base_state=self.base_state, seed=self.seed)


def _exponent(batch: SampleBatch, fitness: np.ndarray) -> int:
    """``e`` with ``f = f~ * 2**e``; refuses a fitness not the batch's."""
    log_scaled, exponent = log_unit_scale(fitness)
    if not np.array_equal(log_scaled, batch.log_fitness):
        raise InvalidArgument(
            "fitness is not the row sums the batch was sampled under")
    return exponent


def _log_trial(lam: float, exponent: int) -> float:
    """``t = log lam~``: ``log lam`` in the units of the batch's ``log f~``."""
    return float(_log_scaled(lam, exponent))


@dataclass(frozen=True)
class _PathSums:
    """The batch as the lam solve sees it: two numbers per path.

    Attributes:
        exponent: ``e`` with ``f = f~ * 2**e`` and ``max f~`` in [1, 2).
        lo, hi: the row-sum bracket ``[min f~, max f~]``; ``lo`` is 0 when
            ``min f~`` lies below the float range.
        log_lo: ``min log f~``, finite even where ``lo`` is 0.
        log_sums: ``S_p = sum_t log f~(X_t)`` per path.
        lengths: ``tau_p`` per path, as floats.
        work: per-path scratch for :meth:`log_g`, so that an evaluation
            allocates nothing; otherwise every one would allocate, and
            page in, several path-sized temporaries.
    """

    exponent: int
    lo: float
    hi: float
    log_lo: float
    log_sums: np.ndarray
    lengths: np.ndarray
    work: np.ndarray

    @classmethod
    def of(cls, batch: SampleBatch, fitness: np.ndarray) -> "_PathSums":
        """The walk's ``S_p`` and ``tau_p``; refuses as :func:`_exponent`."""
        exponent = _exponent(batch, fitness)
        lengths = batch.lengths.astype(float)
        return cls(exponent, float(np.ldexp(fitness.min(), -exponent)),
                   float(np.ldexp(fitness.max(), -exponent)),
                   float(batch.log_fitness.min()), batch.log_sums, lengths,
                   np.empty_like(lengths))

    def log_g(self, t: float) -> tuple[float, float]:
        """log mean return weight at ``lam = exp(t) * 2**exponent``, by the
        max-shifted log-sum-exp of ``S_p - tau_p t``, and its slope in
        ``t``, ``-sum_p tau_p W_p / sum_p W_p``."""
        logs = self.work
        np.multiply(self.lengths, t, out=logs)
        np.subtract(self.log_sums, logs, out=logs)
        m = logs.max()
        logs -= m
        np.maximum(logs, _LOG_WEIGHT_FLOOR, out=logs)
        np.exp(logs, out=logs)
        total = logs.sum()
        slope = -float(self.lengths @ logs / total)
        return float(m + np.log(total) - np.log(logs.shape[0])), slope

    def unscale(self, lam_scaled: float) -> float:
        """``lam`` from a root ``lam~`` of the solve, held to the row-sum
        bracket, so that a bracket of one value gives that value bitwise; a
        root below the normal range holds too few bits to report, and is
        refused."""
        lam_scaled = min(max(lam_scaled, self.lo), self.hi)
        if lam_scaled < _TINY:
            raise EigenvalueUnderflow(float(np.ldexp(self.hi, self.exponent)))
        return float(np.ldexp(lam_scaled, self.exponent))


@np.errstate(over="ignore")  # a mean weight past the float range is inf
def g_hat(batch: SampleBatch, fitness: np.ndarray, lam: float) -> float:
    """Mean return weight of the batch at trial eigenvalue ``lam``.

    Strictly decreasing in ``lam`` for a fixed batch; equals 1 (up to Monte
    Carlo error) at the dominant eigenvalue, and inf past the float range.

    Raises:
        InvalidArgument: ``lam`` is not a finite number > 0, or
            ``fitness`` is not the row sums the batch was sampled under.
    """
    check_trial(lam)
    sums = _PathSums.of(batch, fitness)
    return float(np.exp(sums.log_g(_log_trial(lam, sums.exponent))[0]))


def estimate_lambda(batch: SampleBatch, fitness: np.ndarray,
                    tol: float = EstimationConfig.tol) -> float:
    """Solve mean-return-weight(lam) = 1 by Newton's method on log lam
    from ``min f``, with a bisection fallback inside [min f, max f].

    The paths do not depend on the trial value, so the target is a
    deterministic, strictly decreasing, continuous function of ``lam`` and
    the bracket always holds the root.  The solve stops at the tolerance or
    at float resolution, whichever comes first; a constant fitness vector
    gives a degenerate bracket, whose one value is returned.

    Raises:
        InvalidArgument: ``tol`` not a number in (0, 1), or ``fitness`` is
            not the row sums the batch was sampled under.
        EigenvalueUnderflow: the root lies more than ``2**1022`` times
            below ``max f``, past the normal range of the scaled solve.
    """
    _check_tol(tol)
    return _solve_lambda(_PathSums.of(batch, fitness), tol)


def _solve_lambda(sums: _PathSums, tol: float) -> float:
    """Newton's method on ``t = log lam~`` from ``t = log_lo``, until
    ``|g - 1| <= tol``, with a bisection fallback.

    Every evaluation narrows the bracket ``[lo, hi]``, which starts at
    ``[log_lo, log hi]``.  A Newton step that fails to raise ``t``, or
    that would leave the bracket, switches the solve to bisection of the
    bracket for good; bisection stops when the midpoint is no longer
    strictly inside it.

    Comparisons happen on log g, which stays finite even where the mean
    weight itself would overflow: ``log1p(-tol) <= log g <= log1p(tol)``.
    """
    band_lo = float(np.log1p(-tol))
    band_hi = float(np.log1p(tol))
    lo, hi = sums.log_lo, math.log(sums.hi)
    t, newton = lo, True
    while True:
        log_g, slope = sums.log_g(t)
        if band_lo <= log_g <= band_hi:
            break
        if log_g > 0.0:
            lo = t
        else:
            hi = t
        step = t - log_g / slope
        newton = newton and t < step < hi
        t = step if newton else 0.5 * (lo + hi)
        if not lo < t < hi:
            break
    return sums.unscale(math.exp(t))


@np.errstate(over="ignore")  # an overflowing tally is refused below
def _tally(batch: SampleBatch, t: float) -> np.ndarray:
    """The batch's per-shard tally table at ``t = log lam~``; raises
    :class:`TallyOverflow` where the weights sum past the float range."""
    table = batch.tally(t)
    totals = table.sum(axis=0)
    if not np.isfinite(totals.sum()):
        raise TallyOverflow(batch.base_state, int(np.argmax(totals)))
    return table


def _eigenvector(table: np.ndarray) -> np.ndarray:
    numerators = table.sum(axis=0)
    return _freeze(numerators / numerators.sum())


def estimate_u(batch: SampleBatch, fitness: np.ndarray,
               lam: float) -> np.ndarray:
    """Eigenvector estimate: normalized visit-weight tally, on the simplex.

    The tally at the base state equals the non-truncated path count
    exactly: w_0 = 1 on every path and the base state is never revisited
    inside an excursion.  So ``u[k]`` is bitwise the reciprocal mean total
    path weight.

    Raises:
        InvalidArgument: as in :func:`g_hat`.
        TallyOverflow: the visit weights sum past the float range.
    """
    check_trial(lam)
    t = _log_trial(lam, _exponent(batch, fitness))
    return _eigenvector(_tally(batch, t))


def _jackknife(nums: np.ndarray) -> np.ndarray | None:
    """Delete-one-shard standard errors, or None for a one-row table."""
    if nums.shape[0] < 2:
        return None
    dens = nums.sum(axis=1)
    total_num = nums.sum(axis=0)
    total_den = dens.sum()
    leave_out = (total_num[None, :] - nums) / (total_den - dens)[:, None]
    m = leave_out.shape[0]
    centered = leave_out - leave_out.mean(axis=0)
    return _freeze(np.sqrt((m - 1) / m * (centered**2).sum(axis=0)))


def shard_dispersion(batch: SampleBatch, fitness: np.ndarray,
                     lam: float) -> np.ndarray | None:
    """Delete-one-shard jackknife standard errors for the eigenvector.

    Returns None when fewer than two shards contain paths; the figure is
    indicative plumbing, not a calibrated confidence interval.  Raises as
    :func:`estimate_u` does.
    """
    check_trial(lam)
    t = _log_trial(lam, _exponent(batch, fitness))
    if np.count_nonzero(batch.shard_path_counts) < 2:
        return None
    return _jackknife(_tally(batch, t))


def run_estimation(matrix: NonNegativeMatrix,
                   config: EstimationConfig = EstimationConfig()) -> EstimateReport:
    """Full pipeline: decompose, sample, solve, tally, report.

    Deterministic for a fixed config.  A 1x1 matrix takes the same path:
    every excursion is the unit self-loop, so the bracket collapses to
    ``f[0]`` and every path weighs 1.

    Raises:
        AllTruncated: propagated from sampling.
        TruncationBiasGuard: more than 0.1% of attempts truncated.
        EigenvalueUnderflow: as in :func:`estimate_lambda`.
        TallyOverflow: as in :func:`estimate_u`.
    """
    decomp = decompose(matrix)
    sampler = build_sampler(decomp)
    batch = sample_batch(sampler, config.base_state, config.samples,
                         config.seed, config.cap, config.shards)
    if batch.truncated_count > TRUNCATION_BIAS_LIMIT * config.samples:
        raise TruncationBiasGuard(batch.truncated_count, config.samples,
                                  TRUNCATION_BIAS_LIMIT)

    sums = _PathSums.of(batch, decomp.fitness)
    lam = _solve_lambda(sums, config.tol)
    t = _log_trial(lam, sums.exponent)
    residual = abs(float(np.exp(sums.log_g(t)[0])) - 1.0)
    # Free the solve's per-path arrays before the tally's per-walker ones.
    del sums
    # One pass at the final lam feeds the eigenvector and the jackknife.
    table = _tally(batch, t)
    return EstimateReport(
        lambda_hat=lam,
        u_hat=_eigenvector(table),
        truncated_count=batch.truncated_count,
        g_residual=residual,
        dispersion=_jackknife(table),
    )
