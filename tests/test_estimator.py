import json
import tracemalloc

import numpy as np
import pytest

from perronmc import estimator
from perronmc.chain_sim import build_sampler, sample_batch
from perronmc.cli import main
from perronmc.errors import EmptyBatch, NotPrimitive, TruncationBiasGuard
from perronmc.estimator import (
    EstimationConfig,
    estimate_lambda,
    estimate_u,
    g_hat,
    run_estimation,
    shard_dispersion,
)
from perronmc.matrix_core import decompose, validate
from perronmc.oracle import lemma_partial_sums, power_iteration

from _support import (
    ACCEPTANCE_2X2,
    closed_form_2x2,
    estimate_uk,
    excursions,
    path_log_weights,
    random_primitive_matrix,
    random_stochastic_matrix,
    return_weight_log,
    scale,
    step_weights,
    step_weights_by_path,
    unchecked,
    visit_tally,
)


def _batch_for(rows, k=0, count=1000, seed=0, cap=10**6, shards=1):
    decomp = decompose(unchecked(rows))
    batch = sample_batch(build_sampler(decomp), k, count, seed, cap, shards)
    return batch, decomp


FLIP = [[0.0, 1.0], [1.0, 0.0]]
FAIR = [[0.5, 0.5], [0.5, 0.5]]


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

    def test_empty_batch(self):
        batch, decomp = _batch_for(FAIR, count=10)
        empty = batch.__class__(
            states=np.empty(0, np.int64),
            lengths=np.empty(0, np.int64), truncated_count=10,
            shard_path_counts=np.array([0]),
        )
        with pytest.raises(EmptyBatch):
            g_hat(empty, decomp.fitness, 1.0)


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
        # Same path count at N=2 and N=400: the solve may hold a few arrays
        # per visit and per path, never one per (path, state) pair.
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
            visits = batch.states.shape[0]
            assert peak <= 6 * 8 * (visits + batch.path_count), n

    def test_peak_memory_is_one_array_per_visit(self):
        # Long excursions (mean tau ~ N), so the per-visit term dominates:
        # lam solve plus tally may hold the weights and per-path arrays,
        # but no second batch-sized temporary.
        rows = np.random.default_rng(8).uniform(0.5, 2.0, (50, 50))
        batch, decomp = _batch_for(rows, count=20_000, seed=4)
        visits = batch.states.shape[0]
        assert visits > 40 * batch.path_count
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            lam = estimate_lambda(batch, decomp.fitness)
            estimate_u(batch, decomp.fitness, lam)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= 8 * visits + 6 * 8 * batch.path_count

    def test_chunked_path_sums_equal_batch_wide_sums(self):
        rows = np.random.default_rng(9).uniform(0.5, 2.0, (30, 30))
        batch, decomp = _batch_for(rows, count=3000, seed=5)
        assert batch.states.shape[0] > 10 * estimator._CUMSUM_CHUNK
        sums = estimator._PathSums.of(batch, decomp.fitness)
        scaled = np.ldexp(decomp.fitness, -sums.exponent)
        whole = np.add.reduceat(np.log(scaled)[batch.states], batch.offsets)
        np.testing.assert_array_equal(sums.log_sums, whole)


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

    def test_stochastic_reduction_equals_plain_visit_counts(self):
        rng = np.random.default_rng(17)
        matrix = random_stochastic_matrix(rng, 4)
        decomp = decompose(matrix)
        batch = sample_batch(build_sampler(decomp), 1, 5000, seed=18,
                             cap=10**6, shards=1)
        u = estimate_u(batch, decomp.fitness, 1.0)
        counts = np.bincount(batch.states, minlength=4).astype(float)
        np.testing.assert_array_equal(u, counts / counts.sum())

    def test_step_weight_error_does_not_grow_with_batch(self):
        # Skewed 10x10 matrix: returns to state 0 are rare, mean tau ~ 800.
        rng = np.random.default_rng(0)
        rows = rng.uniform(0.5, 2.0, (10, 10))
        rows[:, 0] *= 0.01
        for count in (200, 2000):
            batch, decomp = _batch_for(rows, count=count, seed=1)
            lam = estimate_lambda(batch, decomp.fitness)
            got = step_weights(batch, decomp.fitness, lam)
            ref = step_weights_by_path(batch, decomp.fitness, lam)
            assert np.abs(got / ref - 1.0).max() <= 1e-11, count

    def test_deterministic_chain_uk_exact(self):
        batch, decomp = _batch_for(FLIP, count=100, seed=19)
        assert estimate_uk(batch, decomp.fitness, 1.0) == 0.5


def _bits(a):
    return None if a is None else np.asarray(a, dtype=float).tobytes()


class TestVisitTallies:
    @pytest.mark.parametrize("count, shards, cap", [
        (3000, 1, 10**6),   # one shard: no per-shard table
        (3000, 7, 10**6),   # shard boundaries fall inside chunks
        (1, 4, 10**6),      # one shard holds the only path
        (3, 7, 10**6),      # empty shards between the full ones
        (3000, 4, 60),      # truncated attempts leave holes in the shards
    ])
    def test_tallies_equal_bincount_of_the_weights(self, count, shards, cap):
        rows = np.random.default_rng(9).uniform(0.5, 2.0, (30, 30))
        batch, decomp = _batch_for(rows, count=count, seed=5, cap=cap,
                                   shards=shards)
        if cap < 10**6:
            assert batch.truncated_count > 0
        lam = estimate_lambda(batch, decomp.fitness)
        totals, by_shard = estimator._visit_tallies(batch, decomp.fitness,
                                                    lam)
        weights = step_weights(batch, decomp.fitness, lam)
        assert _bits(totals) == _bits(np.bincount(batch.states, weights,
                                                  minlength=30))
        counts = batch.shard_path_counts[batch.shard_path_counts > 0]
        if counts.shape[0] < 2:
            assert by_shard is None
            return
        paths = np.concatenate(([0], np.cumsum(counts)))
        visits = np.concatenate(([0], np.cumsum(batch.lengths)))[paths]
        assert by_shard.shape == (counts.shape[0], 30)
        for row, v0, v1 in zip(by_shard, visits[:-1], visits[1:]):
            ref = np.bincount(batch.states[v0:v1], weights[v0:v1],
                              minlength=30)
            assert _bits(row) == _bits(ref)

    def test_final_pass_holds_no_batch_sized_array(self):
        # Long excursions (mean tau ~ N): over a million visits, the tally
        # and the jackknife hold chunk-sized arrays, not one per visit.
        rows = np.random.default_rng(8).uniform(0.5, 2.0, (50, 50))
        batch, decomp = _batch_for(rows, count=25_000, seed=4, shards=4)
        visits = batch.states.shape[0]
        assert visits >= 10**6
        lam = estimate_lambda(batch, decomp.fitness)
        for stage in (estimate_u, shard_dispersion):
            tracemalloc.start()
            try:
                live = tracemalloc.get_traced_memory()[0]
                stage(batch, decomp.fitness, lam)
                peak = tracemalloc.get_traced_memory()[1] - live
            finally:
                tracemalloc.stop()
            assert peak < visits, stage.__name__


class TestRunEstimation:
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

        monkeypatch.setattr(estimator, "_chunk_weights", no_weights)
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
