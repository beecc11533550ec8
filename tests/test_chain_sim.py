import numpy as np
import pytest

from perronmc.chain_sim import build_sampler, mix_seed, sample_batch
from perronmc.errors import AllTruncated
from perronmc.matrix_core import decompose, validate

from _support import (
    CHI2_99,
    Excursion,
    Truncation,
    excursions,
    random_primitive_matrix,
    sample_excursion,
)


def _sampler_for(rows):
    return build_sampler(decompose(validate(rows)))


FLIP = [[0.0, 1.0], [1.0, 0.0]]
FAIR = [[0.5, 0.5], [0.5, 0.5]]


class TestMixSeed:
    def test_frozen_reference_values(self):
        # SplitMix64 outputs; (0, 0) is the classic first output for seed 0.
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(1, 0) == 10451216379200822465
        assert mix_seed(2**64 - 1, 7) == 4638043754431676516

    def test_distinct_streams(self):
        seen = {mix_seed(s, i) for s in range(8) for i in range(8)}
        assert len(seen) == 64


class TestBuildSampler:
    def test_deterministic_row(self):
        s = _sampler_for(FLIP)
        np.testing.assert_array_equal(s.cumulative, [[0.0, 1.0], [1.0, 1.0]])

    def test_fair_rows(self):
        s = _sampler_for(FAIR)
        np.testing.assert_array_equal(s.cumulative, [[0.5, 1.0], [0.5, 1.0]])

    def test_partial_sums(self):
        s = _sampler_for([[1, 2], [3, 4]])
        np.testing.assert_allclose(s.cumulative, [[1 / 3, 1.0], [3 / 7, 1.0]],
                                   rtol=1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_non_decreasing_and_end_at_one(self, seed):
        rng = np.random.default_rng(300 + seed)
        sampler = build_sampler(decompose(random_primitive_matrix(rng)))
        assert (np.diff(sampler.cumulative, axis=1) >= 0.0).all()
        assert np.abs(sampler.cumulative[:, -1] - 1.0).max() <= 1e-12


class TestSampleExcursion:
    def test_deterministic_chain(self):
        sampler = _sampler_for(FLIP)
        rng = np.random.default_rng(0)
        for _ in range(20):
            exc = sample_excursion(sampler, 0, rng, cap=10)
            assert isinstance(exc, Excursion)
            np.testing.assert_array_equal(exc.visits, [0, 1])
            assert exc.return_time == 2

    def test_truncation_when_cap_too_small(self):
        sampler = _sampler_for(FLIP)
        rng = np.random.default_rng(0)
        out = sample_excursion(sampler, 0, rng, cap=1)
        assert isinstance(out, Truncation)
        assert out.cap == 1

    def test_geometric_mean_return(self):
        sampler = _sampler_for(FAIR)
        rng = np.random.default_rng(42)
        taus = [sample_excursion(sampler, 0, rng, cap=10**4).return_time
                for _ in range(20_000)]
        assert abs(np.mean(taus) - 2.0) < 0.05

    def test_zero_probability_states_never_drawn(self):
        # State 1 is unreachable; only 0 <-> 2 transitions occur.
        sampler = _sampler_for([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 0.0, 2.0]])
        rng = np.random.default_rng(9)
        for _ in range(200):
            exc = sample_excursion(sampler, 0, rng, cap=10**4)
            assert isinstance(exc, Excursion)
            assert not (exc.visits == 1).any()


class TestSampleBatch:
    def test_deterministic_chain_batch(self):
        sampler = _sampler_for(FLIP)
        batch = sample_batch(sampler, 0, count=100, seed=123, cap=10**6, shards=1)
        assert batch.path_count == 100
        assert batch.truncated_count == 0
        for exc in excursions(batch):
            np.testing.assert_array_equal(exc.visits, [0, 1])
            assert exc.return_time == 2

    @pytest.mark.parametrize("shards", [1, 3, 16])
    def test_bitwise_reproducible(self, shards):
        rng = np.random.default_rng(77)
        sampler = build_sampler(decompose(random_primitive_matrix(rng)))
        a = sample_batch(sampler, 0, count=5_000, seed=99, shards=shards, cap=10**6)
        b = sample_batch(sampler, 0, count=5_000, seed=99, shards=shards, cap=10**6)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.lengths, b.lengths)
        assert a.truncated_count == b.truncated_count
        assert np.array_equal(a.shard_path_counts, b.shard_path_counts)

    def test_mean_return_time_matches_geometric_law(self):
        sampler = _sampler_for(FAIR)
        batch = sample_batch(sampler, 0, count=10**6, seed=5, cap=10**4, shards=1)
        assert batch.truncated_count == 0
        assert abs(batch.lengths.mean() - 2.0) < 0.01

    def test_all_truncated(self):
        sampler = _sampler_for(FLIP)
        with pytest.raises(AllTruncated):
            sample_batch(sampler, 0, count=50, seed=1, cap=1, shards=1)

    def test_truncations_counted_not_dropped(self):
        # Return to 0 requires escaping a sticky state; cap cuts some paths.
        sampler = _sampler_for([[0.0, 1.0], [1.0, 500.0]])
        batch = sample_batch(sampler, 0, count=2_000, seed=8, cap=1_000, shards=1)
        assert batch.truncated_count > 0
        assert batch.path_count + batch.truncated_count == 2_000
        assert batch.attempted == 2_000

    @pytest.mark.parametrize("count,shards", [(10, 4), (7, 16), (1, 1), (100, 7)])
    def test_shard_partition_covers_count(self, count, shards):
        sampler = _sampler_for(FAIR)
        batch = sample_batch(sampler, 0, count=count, seed=2,
                             shards=shards, cap=10**6)
        assert batch.attempted == count
        assert int(batch.shard_path_counts.sum()) == batch.path_count

    @pytest.mark.parametrize("seed", range(8))
    def test_excursion_invariants(self, seed):
        rng = np.random.default_rng(500 + seed)
        matrix = random_primitive_matrix(rng)
        sampler = build_sampler(decompose(matrix))
        k = int(rng.integers(0, matrix.n))
        batch = sample_batch(sampler, k, count=500, seed=seed, cap=10**5, shards=1)
        assert (batch.lengths <= batch.cap).all()
        for exc in excursions(batch):
            assert exc.visits[0] == k
            assert not (exc.visits[1:] == k).any()
            assert exc.return_time == exc.visits.shape[0]

    def test_one_step_frequencies(self):
        rng = np.random.default_rng(21)
        matrix = random_primitive_matrix(rng, n_max=5)
        decomp = decompose(matrix)
        sampler = build_sampler(decomp)
        draws = 10**6
        u = np.random.default_rng(1234).random(draws)
        for i in range(matrix.n):
            rows = sampler.cumulative[np.full(draws, i)]
            nxt = (rows <= u[:, None]).sum(axis=1)
            nxt = np.minimum(nxt, sampler.last_positive[i])
            freq = np.bincount(nxt, minlength=matrix.n) / draws
            np.testing.assert_allclose(freq, decomp.kernel[i], atol=0.005)
            positive = decomp.kernel[i] > 0
            expected = decomp.kernel[i][positive] * draws
            observed = freq[positive] * draws
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert chi2 < CHI2_99[max(int(positive.sum()) - 1, 1)]
            assert freq[~positive].sum() == 0.0
