import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from perronmc import chain_sim, estimator
from perronmc.chain_sim import SampleBatch, build_sampler, sample_batch
from perronmc.cli import main, parse_matrix
from perronmc.errors import (
    AllTruncated,
    EigenvalueUnderflow,
    InvalidArgument,
    NotPrimitive,
    TallyOverflow,
    TruncationBiasGuard,
)
from perronmc.estimator import (
    EstimationConfig,
    estimate_lambda,
    estimate_u,
    g_hat,
    run_estimation,
    shard_dispersion,
)
from perronmc.matrix_core import decompose, log_unit_scale, validate
from perronmc.oracle import lemma_partial_sums, power_iteration

from _support import (
    ACCEPTANCE_2X2,
    CYCLE_22,
    GOLDEN,
    bench_inputs,
    closed_form_2x2,
    estimate_uk,
    exact_tally,
    excursions,
    path_log_weights,
    random_primitive_matrix,
    random_stochastic_matrix,
    return_weight_log,
    scale,
    offsets,
    shard_tallies,
    solve_lambda_by_bisection,
    step_weights_by_path,
    unchecked,
    visit_tally,
)


def _batch_for(rows, k=0, count=1000, seed=0, cap=10**6, shards=1):
    decomp = decompose(unchecked(rows))
    batch = sample_batch(build_sampler(decomp), k, count, seed, cap, shards)
    return batch, decomp


def _path_sums(batch, fitness):
    return estimator._PathSums.of(batch, fitness)


def _tallies(batch, fitness, lam):
    """The batch's one-pass tally at ``lam`` and its per-shard table."""
    t = estimator._log_trial(lam, log_unit_scale(fitness)[1])
    table = batch.tally(t)
    return table.sum(axis=0), table


FLIP = [[0.0, 1.0], [1.0, 0.0]]
FAIR = [[0.5, 0.5], [0.5, 0.5]]
# Row sums 1e-60, 3e-60 and 1, dominant eigenvalue 2e-60: bisection on
# the row-sum bracket needs about 230 halvings to meet the tolerance.
WIDE_BRACKET = [[5e-61, 5e-61, 1e-200], [1.5e-60, 1.5e-60, 0.0],
                [1.0, 0.0, 0.0]]
# Row sums 2, 5e-324 and 1e-323, dominant eigenvalue about 3.14e-162:
# about 570 halvings.
WIDE_3X3 = [[0, 1, 1], [5e-324, 0, 0], [5e-324, 0, 5e-324]]
# Row sums 2**1023, 5e-324 and 1e-323, dominant eigenvalue about 1.3e-113:
# more than 2**1022 times below the largest row sum, so it is refused,
# after about 1,074 halvings.
HUGE = [[0, 2**1023, 0], [0, 0, 5e-324], [5e-324, 0, 5e-324]]


class TestPathWeights:
    def test_return_weight_at_unit_lambda(self):
        batch, decomp = _batch_for(FLIP, count=5)
        exc = excursions(batch)[0]
        fitness = np.array([3.0, 7.0])
        got = return_weight_log(exc, fitness, np.log(1.0))
        assert got == pytest.approx(np.log(21.0), rel=1e-14)

    def test_return_weight_at_dominant_value(self):
        batch, _ = _batch_for(FLIP, count=5)
        exc = excursions(batch)[0]
        lam, _ = closed_form_2x2()
        got = return_weight_log(exc, np.array([3.0, 7.0]), np.log(lam))
        assert got == pytest.approx(np.log(21.0 / lam**2), rel=1e-12)
        assert got == pytest.approx(np.log(0.7276152641883739), rel=1e-12)

    def test_unit_fitness_gives_zero(self):
        batch, decomp = _batch_for(FAIR, count=50, seed=3)
        for exc in excursions(batch):
            assert return_weight_log(exc, decomp.fitness, 0.0) == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_per_step_head_and_telescoping(self, seed):
        rng = np.random.default_rng(600 + seed)
        matrix = random_primitive_matrix(rng, n_max=6)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 0, 200, seed,
                             cap=10**6, shards=1)
        log_lambda = float(np.log(rng.uniform(0.5, 2.0) * decomp.fitness.mean()))
        for exc in excursions(batch)[:50]:
            weights = path_log_weights(exc, decomp.fitness, log_lambda)
            assert weights.per_step_log[0] == 0.0
            diffs = np.diff(weights.per_step_log)
            expected = np.log(decomp.fitness[exc.visits[:-1]]) - log_lambda
            np.testing.assert_allclose(diffs, expected, atol=1e-12)
            tail = (weights.per_step_log[-1]
                    + np.log(decomp.fitness[exc.visits[-1]]) - log_lambda)
            assert weights.return_log == pytest.approx(tail, abs=1e-12)


class TestGHat:
    def test_stochastic_at_unit_lambda_is_exactly_one(self):
        batch, decomp = _batch_for(FAIR, count=2000, seed=1)
        assert g_hat(batch, decomp.fitness, 1.0) == 1.0

    def test_stochastic_long_paths_at_unit_lambda_is_exactly_one(self):
        rng = np.random.default_rng(8)
        decomp = decompose(random_stochastic_matrix(rng, 50))
        batch = sample_batch(build_sampler(decomp), 0, 5000, seed=4,
                             cap=10**6, shards=1)
        assert batch.lengths.mean() > 40
        assert g_hat(batch, decomp.fitness, 1.0) == 1.0

    def test_deterministic_chain_at_two(self):
        batch, decomp = _batch_for(FLIP, count=100, seed=2)
        assert g_hat(batch, decomp.fitness, 2.0) == pytest.approx(0.25, abs=1e-15)

    def test_near_one_at_dominant_value(self):
        lam, _ = closed_form_2x2()
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=10**5, seed=11)
        series = lemma_partial_sums(validate(ACCEPTANCE_2X2), 0, lam)
        limit = float(series.partial_sums[-1])
        assert abs(g_hat(batch, decomp.fitness, lam) - limit) < 0.02

    @pytest.mark.parametrize("seed", range(5))
    def test_strictly_decreasing(self, seed):
        rng = np.random.default_rng(700 + seed)
        matrix = random_primitive_matrix(rng, n_max=6)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 0, 400, seed,
                             cap=10**6, shards=1)
        lam = float(rng.uniform(decomp.fitness.min(), decomp.fitness.max()))
        delta = float(rng.uniform(1e-6, 0.5))
        assert (g_hat(batch, decomp.fitness, lam + delta)
                < g_hat(batch, decomp.fitness, lam))

    def test_fitness_must_be_the_batch_s(self):
        # The walk summed the sampler's log f~ along each path, and every
        # stage weighs with it, so other row sums would weigh the paths by
        # sums they did not take.  A power-of-two scale has the same f~,
        # and scales lam exactly.
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=100)
        for fitness in (decomp.fitness[::-1], 3.0 * decomp.fitness):
            for stage in (g_hat, estimate_u, shard_dispersion):
                with pytest.raises(InvalidArgument):
                    stage(batch, fitness, 5.0)
            with pytest.raises(InvalidArgument):
                estimate_lambda(batch, fitness)
        assert (estimate_lambda(batch, 2.0 * decomp.fitness)
                == 2.0 * estimate_lambda(batch, decomp.fitness))
        assert (_bits(estimate_u(batch, 2.0 * decomp.fitness, 10.0))
                == _bits(estimate_u(batch, decomp.fitness, 5.0)))


class TestEstimateLambda:
    def test_stochastic_is_exactly_one(self):
        rng = np.random.default_rng(8)
        matrix = random_stochastic_matrix(rng, 5)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 0, 5000, seed=4,
                             cap=10**6, shards=1)
        assert estimate_lambda(batch, decomp.fitness) == 1.0

    def test_2x2_within_one_percent(self):
        lam_true, _ = closed_form_2x2()
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=10**5, seed=12)
        lam = estimate_lambda(batch, decomp.fitness)
        assert abs(lam - lam_true) / lam_true < 0.01

    def test_result_inside_row_sum_bracket(self):
        rng = np.random.default_rng(13)
        for seed in range(5):
            matrix = random_primitive_matrix(rng, n_max=6)
            decomp = decompose(matrix)
            batch = sample_batch(build_sampler(decomp), 0, 2000, seed,
                                 cap=10**6, shards=1)
            lam = estimate_lambda(batch, decomp.fitness)
            assert decomp.fitness.min() <= lam <= decomp.fitness.max()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_solve_stops_at_float_resolution(self, sign):
        # A log g that never enters the tolerance band drives the widest
        # float bracket to one of its ends; the loop must stop there.  Its
        # slope is the flattest a real log g has, since every tau_p >= 1:
        # Newton then climbs by unit steps across the bracket, about 745
        # wide in log lam, and bisection halves the rest to float
        # resolution.
        calls = []

        def log_g(t):
            calls.append(t)
            return sign, -1.0

        lo, hi = 5e-324, float(np.nextafter(2.0, 0.0))
        sums = SimpleNamespace(log_lo=math.log(lo), hi=hi, log_g=log_g,
                               unscale=float)
        lam = estimator._solve_lambda(sums, 1e-10)
        end = hi if sign > 0 else lo
        assert abs(lam - end) <= np.spacing(end)
        assert len(calls) <= math.ceil(math.log(hi) - math.log(lo)) + 64

    @pytest.mark.parametrize("tol", [1e-10, 1e-3])
    def test_newton_root_agrees_with_bisection(self, tol):
        # Both roots lie in the band log1p(-tol) <= log g <= log1p(tol), and
        # log g falls by at least 1 per unit of log lam, since every
        # tau_p >= 1: so the roots differ in log lam by at most the band's
        # width.
        rng = np.random.default_rng(41)
        matrices = [random_primitive_matrix(rng) for _ in range(20)]
        matrices += [validate(WIDE_BRACKET), validate(WIDE_3X3)]
        width = float(np.log1p(tol) - np.log1p(-tol))
        for i, matrix in enumerate(matrices):
            decomp = decompose(matrix)
            batch = sample_batch(build_sampler(decomp), 0, 2000, seed=i,
                                 cap=10**6, shards=1)
            sums = _path_sums(batch, decomp.fitness)
            newton = estimator._solve_lambda(sums, tol)
            bisection = solve_lambda_by_bisection(sums, tol)
            assert abs(math.log(newton) - math.log(bisection)) <= width, i

    def test_path_weights_stay_normal(self):
        # Rows scaled by 0.5 to 2 spread log f~ so far that at the low end
        # of the bracket the longest path outweighs the shortest by more
        # than e**708: np.exp would return subnormal weights there, many
        # times slower than normal ones.
        rng = np.random.default_rng(5)
        rows = (rng.uniform(0.5, 2.0, (100, 100))
                * rng.uniform(0.5, 2.0, (100, 1)))
        batch, decomp = _batch_for(rows, count=2000, seed=3)
        sums = _path_sums(batch, decomp.fitness)
        sums.log_g(sums.log_lo)
        tiny = np.finfo(float).tiny
        assert not ((sums.work > 0.0) & (sums.work < tiny)).any()

    def test_row_sums_past_the_float_range(self):
        # Row sums 2, 5e-324 and 1e-323: divided by 2, the small two fall
        # below the normal range, where ldexp rounds them to one bit or to
        # 0.  The root, about sqrt(2 * 5e-324) = 3.143e-162, solves the
        # batch's own equation as read from unscaled logs.
        batch, decomp = _batch_for(WIDE_3X3, count=20_000)
        lam = estimate_lambda(batch, decomp.fitness)
        weights = [np.exp(return_weight_log(exc, decomp.fitness, np.log(lam)))
                   for exc in excursions(batch)]
        assert abs(np.mean(weights) - 1.0) <= EstimationConfig.tol

    @pytest.mark.parametrize("c", [2.0, 0.5, 4.0, 2.0**-20, 2.0**30])
    def test_dyadic_scaling_is_exact(self, c):
        matrix = validate(ACCEPTANCE_2X2)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 0, 20_000, seed=6,
                             cap=10**6, shards=1)
        lam = estimate_lambda(batch, decomp.fitness)

        scaled = decompose(scale(matrix, c))
        batch_c = sample_batch(build_sampler(scaled), 0, 20_000, seed=6,
                               cap=10**6, shards=1)
        assert np.array_equal(batch.states, batch_c.states)
        assert estimate_lambda(batch_c, scaled.fitness) == c * lam
        assert g_hat(batch_c, scaled.fitness, c * lam) == g_hat(
            batch, decomp.fitness, lam)

    def test_peak_memory_has_no_state_factor(self):
        # Same path count at N=2 and N=400: the walk took S_p and tau_p, so
        # the solve holds a few arrays per path, never one per visit or per
        # (path, state) pair.
        rng = np.random.default_rng(5)
        for n in (2, 400):
            rows = rng.uniform(0.5, 2.0, (n, n))
            rows[:, 0] = 4.0 * rows.sum(axis=1)  # short excursions
            batch, decomp = _batch_for(rows, count=20_000, seed=3)
            assert batch.path_count == 20_000
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                lam = estimate_lambda(batch, decomp.fitness)
                g_hat(batch, decomp.fitness, lam)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 8 * batch.path_count, n

    def test_peak_memory_is_a_few_arrays_per_walker(self):
        # Long excursions (mean tau ~ N), so a per-visit array would be 40
        # times a per-walker one: the lam solve and the tally hold a few
        # walker-sized arrays, none per visit.
        rows = np.random.default_rng(8).uniform(0.5, 2.0, (50, 50))
        batch, decomp = _batch_for(rows, count=20_000, seed=4)
        assert batch.lengths.sum() > 40 * batch.attempted
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            lam = estimate_lambda(batch, decomp.fitness)
            estimate_u(batch, decomp.fitness, lam)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 8 * batch.attempted

    def test_path_sums_are_within_a_stated_bound_of_fsum(self):
        # The walk sums log f~ along each path from zero, one term a step:
        # a recursive sum of tau terms is within (tau - 1) eps sum |terms|
        # of the exact sum (Higham, Accuracy and Stability of Numerical
        # Algorithms, 2002, 4.2).
        rows = np.random.default_rng(9).uniform(0.5, 2.0, (30, 30))
        batch, decomp = _batch_for(rows, count=3000, seed=5)
        sums = _path_sums(batch, decomp.fitness)
        scaled = np.ldexp(decomp.fitness, -sums.exponent)
        terms = np.split(np.log(scaled)[batch.states],
                         offsets(batch)[1:])
        assert max(t.shape[0] for t in terms) > 100
        eps = np.finfo(float).eps
        for got, tau, path in zip(sums.log_sums, batch.lengths, terms):
            exact = math.fsum(path)
            bound = (tau - 1) * eps * math.fsum(np.abs(path))
            assert abs(got - exact) <= bound


class TestTrialEigenvalue:
    @pytest.mark.parametrize("stage", [g_hat, estimate_u, shard_dispersion])
    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_stages_refuse_a_trial_value_not_finite_and_positive(self, stage,
                                                                 lam):
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=500, shards=4)
        with pytest.raises(InvalidArgument):
            stage(batch, decomp.fitness, lam)

    def test_refusal_order(self):
        # The trial value or tol first, then the fitness.
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=500, shards=4)
        wrong = decomp.fitness[::-1]
        for stage in (g_hat, estimate_u, shard_dispersion):
            with pytest.raises(InvalidArgument, match="trial eigenvalue"):
                stage(batch, wrong, np.nan)
        with pytest.raises(InvalidArgument, match="tol"):
            estimate_lambda(batch, wrong, 2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [g_hat, estimate_u, shard_dispersion])
    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-300])
    def test_trial_value_far_below_the_row_sums(self, stage, lam):
        # lam / 2**e rounds to 0 at 5e-324, so log lam~ is taken from
        # lam's mantissa and exponent.  A path's weight then grows by
        # f / lam, past the float range, in a step or two: the mean weight
        # is inf, and the tallies are refused.
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=500, shards=4)
        if stage is g_hat:
            assert g_hat(batch, decomp.fitness, lam) == math.inf
        else:
            with pytest.raises(TallyOverflow):
                stage(batch, decomp.fitness, lam)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stage", [g_hat, estimate_u, shard_dispersion])
    @pytest.mark.parametrize("lam", [1e10, 1e300, 1.7e308])
    def test_trial_value_far_above_the_row_sums(self, stage, lam):
        # The row sums are near 1e-300, so lam / 2**e passes the float
        # range and log lam~ is taken from lam's mantissa and exponent.  A
        # path's weight then shrinks by f / lam a step: the mean weight is
        # tiny or 0, and every tally stays finite.
        batch, decomp = _batch_for([[1e-300, 2e-300], [3e-300, 4e-300]],
                                   count=500, shards=4)
        value = np.asarray(stage(batch, decomp.fitness, lam))
        assert np.isfinite(value).all()
        if stage is g_hat:
            assert value < 1.0
        elif stage is estimate_u:
            assert (value >= 0).all()
            assert abs(value.sum() - 1.0) <= 1e-12


class TestEveryBatchHoldsAPath:
    # From base state 0 the chain moves to state 1, which returns with
    # probability 1/2 a step, so no excursion is shorter than 2 steps and
    # cap 1 truncates every attempt.  The sampler refuses a batch without
    # paths, and the estimator's stages rely on that: none checks again.
    ROWS = [[0, 1], [1, 1]]
    SEED = 5

    @pytest.mark.parametrize("shards", [1, 4])
    def test_sampler_refuses_a_batch_without_paths(self, shards):
        with pytest.raises(AllTruncated):
            _batch_for(self.ROWS, count=64, seed=self.SEED, cap=1,
                       shards=shards)

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("cap", range(2, 7))
    def test_every_stage_reads_a_sampled_batch(self, cap, shards):
        batch, decomp = _batch_for(self.ROWS, count=64, seed=self.SEED,
                                   cap=cap, shards=shards)
        assert batch.path_count >= 1
        lam = estimate_lambda(batch, decomp.fitness)
        assert math.isfinite(lam)
        assert math.isfinite(g_hat(batch, decomp.fitness, lam))
        assert np.isfinite(estimate_u(batch, decomp.fitness, lam)).all()
        dispersion = shard_dispersion(batch, decomp.fitness, lam)
        if shards == 1:
            assert dispersion is None
        else:
            assert np.isfinite(dispersion).all()


class TestTallyOverflow:
    def test_refused_from_a_light_base_state(self):
        # From state 1 a path's weight grows by f / lam, about 5e14, a step:
        # the visit to state 22 weighs 5e14 ** 21, past the float range.
        batch, decomp = _batch_for(CYCLE_22, count=200, shards=2)
        lam = estimate_lambda(batch, decomp.fitness)
        for stage in (estimate_u, shard_dispersion):
            with pytest.raises(TallyOverflow) as info:
                stage(batch, decomp.fitness, lam)
            assert (info.value.base_state, info.value.largest) == (0, 21)


class TestEstimateU:
    def test_symmetric_chain(self):
        batch, decomp = _batch_for(FAIR, count=50_000, seed=14)
        u = estimate_u(batch, decomp.fitness, 1.0)
        np.testing.assert_allclose(u, [0.5, 0.5], atol=0.01)

    def test_2x2_against_closed_form(self):
        lam_true, u_true = closed_form_2x2()
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=10**5, seed=15)
        lam = estimate_lambda(batch, decomp.fitness)
        u = estimate_u(batch, decomp.fitness, lam)
        assert np.abs(u - u_true).sum() < 0.02

    def test_constant_matrix_symmetry(self):
        batch, decomp = _batch_for([[2.0, 2.0], [2.0, 2.0]], count=50_000, seed=16)
        lam = estimate_lambda(batch, decomp.fitness)
        assert lam == 4.0  # degenerate bracket: both row sums equal
        u = estimate_u(batch, decomp.fitness, lam)
        np.testing.assert_allclose(u, [0.5, 0.5], atol=0.01)

    @pytest.mark.parametrize("seed", range(10))
    def test_simplex_and_exact_identities(self, seed):
        rng = np.random.default_rng(800 + seed)
        matrix = random_primitive_matrix(rng)
        decomp = decompose(matrix)
        k = int(rng.integers(0, matrix.n))
        batch = sample_batch(build_sampler(decomp), k, 500, seed,
                             cap=10**6, shards=1)
        lam = estimate_lambda(batch, decomp.fitness)
        u = estimate_u(batch, decomp.fitness, lam)
        assert (u >= 0.0).all()
        assert abs(u.sum() - 1.0) <= 1e-12
        tally = visit_tally(batch, decomp.fitness, lam)
        assert tally.numerators[k] == float(batch.path_count)
        assert tally.denominator == tally.numerators.sum()
        assert estimate_uk(batch, decomp.fitness, lam) == u[k]
        np.testing.assert_array_equal(u, tally.numerators / tally.denominator)
        # Within rounding of the exact sums of the path-by-path weights:
        # 2.0e-15 at most over these seeds.
        exact = exact_tally(batch, decomp.fitness, lam).sum(axis=0)
        assert ((tally.numerators == 0) == (exact == 0)).all()
        seen = exact > 0
        assert (np.abs(tally.numerators[seen] / exact[seen] - 1.0).max()
                <= 1e-14)

    def test_stochastic_reduction_equals_plain_visit_counts(self):
        rng = np.random.default_rng(17)
        matrix = random_stochastic_matrix(rng, 4)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 1, 5000, seed=18,
                             cap=10**6, shards=1)
        u = estimate_u(batch, decomp.fitness, 1.0)
        counts = np.bincount(batch.states, minlength=4).astype(float)
        np.testing.assert_array_equal(u, counts / counts.sum())

    def test_step_weight_error_does_not_grow_with_batch(self, monkeypatch):
        # Skewed 10x10 matrix: returns to state 0 are rare, mean tau ~ 800.
        # The tally's weights are each path's own, exp(S_n - n t) from the
        # walk's running S_n, at every batch size.  Recorded step by step,
        # its sums equal bitwise those of the weights taken path by path,
        # added a step at a time; summed in the walk while walkers are
        # many, they stay as close to the exact sums at 2,000 paths as at
        # 200 (8.0e-15 and 6.4e-15; the step-by-step sums 5.6e-15 and
        # 5.2e-15).
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.5, 2.0, (10, 10))
        rows[:, 0] *= 0.01
        for count in (200, 2000):
            with monkeypatch.context() as patch:
                patch.setattr(chain_sim, "_SUM_BYTES", math.inf)
                batch, decomp = _batch_for(rows, count=count, seed=1)
            assert batch.shifts.size == 0
            lam = estimate_lambda(batch, decomp.fitness)
            totals, _ = _tallies(batch, decomp.fitness, lam)
            ref = shard_tallies(batch, decomp.fitness, lam).sum(axis=0)
            assert _bits(totals) == _bits(ref), count

            batch, decomp = _batch_for(rows, count=count, seed=1)
            assert batch.shifts.size > 0
            totals, _ = _tallies(batch, decomp.fitness, lam)
            exact = exact_tally(batch, decomp.fitness, lam).sum(axis=0)
            assert np.abs(totals / exact - 1.0).max() <= 2e-14, count

    def test_deterministic_chain_uk_exact(self):
        batch, decomp = _batch_for(FLIP, count=100, seed=19)
        assert estimate_uk(batch, decomp.fitness, 1.0) == 0.5


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


class TestVisitTallies:
    @pytest.mark.parametrize("count, shards, cap", [
        (3000, 1, 10**6),   # one shard: a one-row table
        (3000, 1, 60),      # one shard with truncated attempts
        (3000, 7, 10**6),   # shard boundaries fall inside chunks
        (1, 4, 10**6),      # one shard holds the only path
        (3, 7, 10**6),      # empty shards between the full ones
        (3000, 4, 60),      # truncated attempts leave holes in the shards
    ])
    def test_tallies_equal_bincount_of_the_weights(self, monkeypatch, count,
                                                   shards, cap):
        # Recorded step by step, the tally adds each step's path-by-path
        # weights with one np.bincount, bitwise.  Summed in the walk while
        # walkers are many, each entry is within rounding of the exact sum
        # of the same weights (1.1e-15 at most over these cases), and an
        # entry is 0 exactly where no visit is.
        rows = np.random.default_rng(9).uniform(0.5, 2.0, (30, 30))
        with monkeypatch.context() as patch:
            patch.setattr(chain_sim, "_SUM_BYTES", math.inf)
            batch, decomp = _batch_for(rows, count=count, seed=5, cap=cap,
                                       shards=shards)
        assert batch.shifts.size == 0
        if cap < 10**6:
            assert batch.truncated_count > 0
        lam = estimate_lambda(batch, decomp.fitness)
        totals, by_shard = _tallies(batch, decomp.fitness, lam)
        ref = shard_tallies(batch, decomp.fitness, lam)
        assert _bits(totals) == _bits(ref.sum(axis=0))
        assert totals[0] == batch.path_count
        assert by_shard.shape == ref.shape
        assert _bits(by_shard) == _bits(ref)

        batch, decomp = _batch_for(rows, count=count, seed=5, cap=cap,
                                   shards=shards)
        assert (batch.shifts.size > 0) == (count > 3)
        totals, by_shard = _tallies(batch, decomp.fitness, lam)
        exact = exact_tally(batch, decomp.fitness, lam)
        assert totals[0] == batch.path_count
        assert by_shard.shape == exact.shape
        assert ((by_shard == 0) == (exact == 0)).all()
        seen = exact > 0
        assert np.abs(by_shard[seen] / exact[seen] - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("count", [2_000, 8_000, 20_000])
    def test_tally_error_does_not_grow_with_batch(self, count):
        # About 0.21M, 0.84M and 2.1M visits.  Each total is within 1e-14
        # relative of the exact sum of the weights taken path by path:
        # sums over the whole batch in visit order were 1.7e-14 off at 2.1M
        # visits, and 4.6e-14 at 8.3M.
        rows = np.random.default_rng(100).uniform(0.5, 2.0, (100, 100))
        batch, decomp = _batch_for(rows, count=count, seed=3)
        lam = estimate_lambda(batch, decomp.fitness)
        totals, _ = _tallies(batch, decomp.fitness, lam)
        weights = step_weights_by_path(batch, decomp.fitness, lam)
        order = np.argsort(batch.states, kind="stable")
        ends = np.cumsum(np.bincount(batch.states, minlength=100))
        exact = [math.fsum(part)
                 for part in np.split(weights[order], ends[:-1])]
        assert np.abs(totals / exact - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("shards, cap", [
        (4, 10**6),
        (4, 200),   # truncated walkers carry weight 0 in every row
        (1, 200),
    ])
    def test_final_pass_holds_no_batch_sized_array(self, shards, cap):
        # Long excursions (mean tau ~ N): over a million visits, and the
        # tally and the jackknife hold a few walker-sized arrays.
        rows = np.random.default_rng(8).uniform(0.5, 2.0, (50, 50))
        batch, decomp = _batch_for(rows, count=25_000, seed=4, cap=cap,
                                   shards=shards)
        assert batch.lengths.sum() >= 10**6
        if cap < 10**6:
            assert batch.truncated_count > 0
        lam = estimate_lambda(batch, decomp.fitness)
        for stage in (estimate_u, shard_dispersion):
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                stage(batch, decomp.fitness, lam)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
            assert peak <= 6 * 8 * batch.attempted, stage.__name__


class TestRunEstimation:
    @pytest.mark.parametrize("case", [
        "compare-uniform-n100", "compare-master-n200", "wide-bracket",
        "wide-3x3", "huge"])
    def test_solve_takes_few_evaluations(self, monkeypatch, case):
        # Plain bisection made 37, 30, 233, 572 and 1,074 evaluations of
        # log g on these, residual included.
        if case.startswith("compare-"):
            matrix, config = bench_inputs(case, seed=0)
        else:
            rows = {"wide-bracket": WIDE_BRACKET, "wide-3x3": WIDE_3X3,
                    "huge": HUGE}[case]
            matrix, config = validate(rows), EstimationConfig()
        calls = []
        log_g = estimator._PathSums.log_g

        def counted(sums, t):
            calls.append(t)
            return log_g(sums, t)

        monkeypatch.setattr(estimator._PathSums, "log_g", counted)
        if case == "huge":
            with pytest.raises(EigenvalueUnderflow):
                run_estimation(matrix, config)
        else:
            assert run_estimation(matrix, config).g_residual <= config.tol
        assert 0 < len(calls) <= 10

    def test_not_primitive_propagates(self):
        with pytest.raises(NotPrimitive):
            run_estimation(validate(FLIP))

    def test_report_fields_and_determinism(self):
        config = EstimationConfig(samples=5000, seed=20, shards=4)
        matrix = validate(ACCEPTANCE_2X2)
        a = run_estimation(matrix, config)
        b = run_estimation(matrix, config)
        assert a.lambda_hat == b.lambda_hat
        assert np.array_equal(a.u_hat, b.u_hat)
        assert a.g_residual <= 1e-10
        assert a.dispersion is not None and a.dispersion.shape == (2,)
        np.testing.assert_array_equal(a.dispersion, b.dispersion)

    def test_dispersion_without_two_shards_weighs_nothing(self, monkeypatch):
        batch, decomp = _batch_for(ACCEPTANCE_2X2, count=500, seed=2)

        def no_weights(*args):
            raise AssertionError("per-visit weights computed")

        monkeypatch.setattr(SampleBatch, "tally", no_weights)
        assert shard_dispersion(batch, decomp.fitness, 5.0) is None

    def test_single_shard_has_no_dispersion(self):
        report = run_estimation(validate(ACCEPTANCE_2X2),
                                EstimationConfig(samples=2000, seed=1))
        assert report.dispersion is None

    def test_truncation_bias_guard(self):
        # Sticky second state: ~13% of excursions exceed the cap.
        matrix = validate([[0.0, 1.0], [1.0, 500.0]])
        with pytest.raises(TruncationBiasGuard):
            run_estimation(matrix, EstimationConfig(samples=2000, seed=8,
                                                    cap=1000))

    def test_single_state_shortcut(self, tmp_path, capsys):
        # A 1x1 matrix takes the sampling path: every excursion is the unit
        # self-loop, so the bracket collapses to f and every path weighs 1.
        report = run_estimation(validate([[4.25]]))
        assert report.lambda_hat == 4.25
        np.testing.assert_array_equal(report.u_hat, [1.0])
        assert report.g_residual == 0.0
        path = tmp_path / "one.json"
        path.write_text(json.dumps({"n": 1, "rows": [[4.25]]}))
        for shards in (2, 3):
            assert main(["estimate", str(path), "--samples", "500",
                         "--shards", str(shards)]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["samples"] == 500
            assert payload["dispersion"] == [0.0]

    def test_base_state_invariance(self):
        lam_true, u_true = closed_form_2x2()
        matrix = validate(ACCEPTANCE_2X2)
        reports = [
            run_estimation(matrix, EstimationConfig(base_state=k,
                                                    samples=10**5, seed=21))
            for k in (0, 1)
        ]
        gap = np.abs(reports[0].u_hat - reports[1].u_hat).sum()
        assert gap < 0.03
        for report in reports:
            assert np.abs(report.u_hat - u_true).sum() < 0.02

    def test_base_state_invariance_larger_matrix(self):
        rng = np.random.default_rng(7777)
        matrix = random_primitive_matrix(rng, n_max=8, hi=5.0)
        estimates = [
            run_estimation(matrix, EstimationConfig(base_state=k,
                                                    samples=10**5,
                                                    seed=26)).u_hat
            for k in range(matrix.n)
        ]
        for a in estimates:
            for b in estimates:
                assert np.abs(a - b).sum() < 0.03

    @pytest.mark.parametrize("c", [2.0, 0.25])
    def test_scaling_equivariance(self, c):
        matrix = validate(ACCEPTANCE_2X2)
        config = EstimationConfig(samples=20_000, seed=22, shards=2)
        base = run_estimation(matrix, config)
        scaled = run_estimation(scale(matrix, c), config)
        assert np.abs(scaled.u_hat - base.u_hat).max() <= 1e-12
        assert scaled.lambda_hat == pytest.approx(c * base.lambda_hat,
                                                  rel=1e-12)

    def test_lambda_inside_row_sum_bounds(self):
        report = run_estimation(validate(ACCEPTANCE_2X2),
                                EstimationConfig(samples=2000, seed=23))
        assert 3.0 <= report.lambda_hat <= 7.0

    def test_wide_bracket_solves_to_the_tolerance(self):
        matrix = validate(WIDE_BRACKET)
        config = EstimationConfig(samples=2000, seed=0)
        report = run_estimation(matrix, config)
        lam = power_iteration(matrix).eigenvalue
        assert report.g_residual <= config.tol
        assert abs(report.lambda_hat - lam) / lam < 0.1

    def test_oracle_agreement_near_dominant_pair(self):
        pair = power_iteration(validate(ACCEPTANCE_2X2))
        report = run_estimation(validate(ACCEPTANCE_2X2),
                                EstimationConfig(samples=10**5, seed=24))
        assert abs(report.lambda_hat - pair.eigenvalue) / pair.eigenvalue < 0.01
        assert np.abs(report.u_hat - pair.vector).sum() < 0.02

    @pytest.mark.parametrize("rows, samples, shards, cap", [
        (ACCEPTANCE_2X2, 3000, 1, 10**6),
        (ACCEPTANCE_2X2, 3000, 2, 10**6),
        ("random", 3000, 4, 10**6),
        (ACCEPTANCE_2X2, 3000, 7, 10**6),
        (ACCEPTANCE_2X2, 3, 7, 10**6),     # fewer paths than shards
        (ACCEPTANCE_2X2, 20_000, 4, 15),   # a few truncations
        ([[4.25]], 500, 4, 10**6),
    ])
    def test_report_equals_the_stages_on_the_same_batch(self, rows, samples,
                                                        shards, cap):
        if rows == "random":
            matrix = random_primitive_matrix(np.random.default_rng(31))
        else:
            matrix = validate(rows)
        config = EstimationConfig(samples=samples, seed=5, cap=cap,
                                  shards=shards)
        report = run_estimation(matrix, config)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), config.base_state,
                             samples, config.seed, cap, shards)
        if cap < 10**6:
            assert report.truncated_count == batch.truncated_count > 0
        f = decomp.fitness
        lam = estimate_lambda(batch, f, config.tol)
        assert _bits(report.lambda_hat) == _bits(lam)
        assert _bits(report.u_hat) == _bits(estimate_u(batch, f, lam))
        assert _bits(report.g_residual) == _bits(abs(g_hat(batch, f, lam)
                                                     - 1.0))
        assert _bits(report.dispersion) == _bits(shard_dispersion(batch, f,
                                                                  lam))



def _log_weight_rounding(batch, t):
    """Bounds, relative, on how far the rounding of the log weights at
    ``t = log lam~`` can move the tally-solve identity's two sides.

    Returns ``(step, ret)``.  ``step`` bounds one visit's mismatch: its
    weight times ``f / lam`` and the next visit's weight differ by the
    rounding of ``log f~ - t`` and of one addition to a running log
    weight.  ``ret`` bounds the gap between a path's log return weight
    taken as a running sum of ``log f~ - t`` and as ``g`` takes it,
    ``S_p - tau_p t``: recursive summation errs by at most u times the sum
    of its partial sums' magnitudes (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2nd ed., 2002, section 4.2).

    These bounds hold for a tally that sums ``log f~ - t`` along each
    path.  The tally weighs visit ``n`` by ``exp(S_n - n t)`` with the
    walk's own ``S_n``, the form ``g`` takes, and its gaps measure well
    inside them: 1.5e-12 on spread10 at 0.8 lam, where 1e-13 alone does
    not hold.
    """
    u = np.finfo(float).eps / 2
    starts = np.cumsum(batch.lengths) - batch.lengths
    log_f = batch.log_fitness[batch.states]

    def partial_sums(terms):
        sums = np.cumsum(terms)
        return sums - np.repeat(sums[starts] - terms[starts], batch.lengths)

    log_w = partial_sums(log_f - t)
    step = u * (np.abs(log_w).max() + np.abs(batch.log_fitness).max()
                + abs(t))
    ret = u * (np.add.reduceat(np.abs(log_w), starts)
               + np.add.reduceat(np.abs(partial_sums(log_f)), starts)
               + batch.lengths * abs(t)).max()
    return step, ret


class TestTallySolveIdentity:
    """At any trial lam, on any batch, ``u.f / lam = 1 + (g(lam) - 1) u[k]``.

    For each path, ``sum_{n < tau} w_n f(X_n) / lam = sum_{n=1}^{tau} w_n``,
    which is ``sum_{n < tau} w_n - 1 + w_tau``; summed over the paths, the
    tally ``Y`` gives ``Y.f / lam = sum Y - P + P g(lam)``, and ``u = Y /
    sum Y`` with ``u[k] = P / sum Y``.  The tally sums the walk's steps,
    while ``g`` comes from each path's ``S_p`` and ``tau_p`` alone, so a
    tally that drops or shifts a step's weights breaks it.

    The sides agree to 1e-13 relative, widened only by the rounding of the
    log weights (:func:`_log_weight_rounding`).  That matters only on long
    excursions far below the root: on spread10 from state 1 (about 1,000
    steps a path) at 0.8 lam the sides were 1.5e-12 apart.
    """

    @staticmethod
    def _matrix(name):
        if name in ("compare-uniform-n100", "compare-master-n200"):
            return bench_inputs(name, 0)[0]
        return parse_matrix(GOLDEN / "inputs" / f"{name}.json")

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("name", ["m2", "sparse3", "spread10",
                                      "compare-uniform-n100",
                                      "compare-master-n200"])
    def test_identity_holds_at_and_around_the_root(self, name, shards):
        decomp = decompose(self._matrix(name))
        f = decomp.fitness
        batch = sample_batch(build_sampler(decomp), 0, 5_000, 0, 10**6,
                             shards)
        k = batch.base_state
        lam_hat = estimate_lambda(batch, f)
        for factor in (1.0, 0.8, 0.99, 1.01, 1.3):
            lam = lam_hat * factor
            try:
                u = estimate_u(batch, f, lam)
            except TallyOverflow:
                # Weights grow along a path only below the root.
                assert factor < 1.0
                continue
            g = g_hat(batch, f, lam)
            left = math.fsum(u * f) / lam
            right = 1.0 + (g - 1.0) * u[k]
            step, ret = _log_weight_rounding(
                batch, estimator._log_trial(lam, log_unit_scale(f)[1]))
            bound = (1e-13 + 4 * step) * abs(right) + 2 * ret * g * u[k]
            assert abs(left - right) <= bound, (factor, left, right)
