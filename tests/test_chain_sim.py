import hashlib

import numpy as np
import pytest

from perronmc.chain_sim import _step_states, build_sampler, mix_seed, sample_batch
from perronmc.errors import AllTruncated, InvalidArgument
from perronmc.matrix_core import decompose

from _support import (
    CHI2_99,
    Excursion,
    Truncation,
    excursions,
    inverse_cdf_tables,
    random_primitive_matrix,
    sample_excursion,
    step_states_reference,
    unchecked,
)


def _kernel_for(rows):
    return decompose(unchecked(rows)).kernel


def _sampler_for(rows):
    return build_sampler(decompose(unchecked(rows)))


FLIP = [[0.0, 1.0], [1.0, 0.0]]
FAIR = [[0.5, 0.5], [0.5, 0.5]]


def _skewed_matrix():
    """Sparse, skewed and primitive: row 3 puts its seven leading CDF points
    into the first 1/N of [0, 1) and its last five into the final one."""
    rng = np.random.default_rng(2024)
    n = 12
    a = rng.uniform(0.0, 1.0, (n, n)) ** 4
    a[rng.random((n, n)) < 0.35] = 0.0
    a[3] = 1e-6
    a[3, 7] = 1.0
    a[3, 3] = 0.0
    a[:, 0] += 0.05
    a[0, 1:] += 0.01
    return a


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


def _assert_sentinel_rows(sampler, kernel):
    """Entries before each row's last positive state are bitwise the
    kernel's cumulative sums; entries from it on are the sentinel 2.0."""
    cumsum, last_positive = inverse_cdf_tables(kernel)
    before = np.arange(kernel.shape[1]) < last_positive[:, None]
    np.testing.assert_array_equal(sampler.cumulative[before], cumsum[before])
    assert (sampler.cumulative[~before] == 2.0).all()


class TestBuildSampler:
    def test_deterministic_row(self):
        s = _sampler_for(FLIP)
        np.testing.assert_array_equal(s.cumulative, [[0.0, 2.0], [2.0, 2.0]])
        _assert_sentinel_rows(s, _kernel_for(FLIP))

    def test_fair_rows(self):
        s = _sampler_for(FAIR)
        np.testing.assert_array_equal(s.cumulative, [[0.5, 2.0], [0.5, 2.0]])
        _assert_sentinel_rows(s, _kernel_for(FAIR))

    def test_partial_sums(self):
        s = _sampler_for([[1, 2], [3, 4]])
        np.testing.assert_allclose(s.cumulative, [[1 / 3, 2.0], [3 / 7, 2.0]],
                                   rtol=1e-15)
        _assert_sentinel_rows(s, _kernel_for([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("seed", range(10))
    def test_rows_non_decreasing_and_end_at_one(self, seed):
        rng = np.random.default_rng(300 + seed)
        decomp = decompose(random_primitive_matrix(rng))
        kernel = decomp.kernel
        sampler = build_sampler(decomp)
        _assert_sentinel_rows(sampler, kernel)
        assert (np.diff(sampler.cumulative, axis=1) >= 0.0).all()
        cumsum, _ = inverse_cdf_tables(kernel)
        assert np.abs(cumsum[:, -1] - 1.0).max() <= 1e-12


def _edge_uniforms(kernel):
    """Uniforms on and beside every bucket edge b / N and every cumulative
    sum of the kernel, plus the ends of [0, 1)."""
    n = kernel.shape[0]
    cumsum, _ = inverse_cdf_tables(kernel)
    points = np.concatenate((np.arange(n) / n, cumsum.ravel()))
    u = np.concatenate((points, np.nextafter(points, -1.0),
                        np.nextafter(points, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]))
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


class TestStepStates:
    def _assert_matches_scan(self, rows, u):
        kernel = _kernel_for(rows)
        sampler = build_sampler(decompose(unchecked(rows)))
        current = np.repeat(np.arange(sampler.n), u.shape[0])
        u = np.tile(u, sampler.n)
        got = _step_states(sampler, current, u)
        np.testing.assert_array_equal(got, step_states_reference(kernel, current, u))

    @pytest.mark.parametrize("seed", range(12))
    def test_equals_full_scan_on_sparse_skewed_kernels(self, seed):
        rng = np.random.default_rng(700 + seed)
        matrix = random_primitive_matrix(rng, n_max=40, zero_frac=0.5)
        # Raising entries to a high power piles most CDF points into a few
        # buckets, which is where the guide table does the most searching.
        rows = matrix.entries ** rng.choice([1.0, 4.0, 12.0])
        u = np.concatenate((_edge_uniforms(_kernel_for(rows)),
                            rng.random(2000)))
        self._assert_matches_scan(rows, u)

    def test_equals_full_scan_on_crowded_bucket(self):
        rows = _skewed_matrix()
        self._assert_matches_scan(rows, _edge_uniforms(_kernel_for(rows)))

    @pytest.mark.parametrize("rows", [FLIP, FAIR, [[0.0, 0.0, 1.0], [1.0, 1.0, 1.0],
                                                     [2.0, 0.0, 2.0]]])
    def test_equals_full_scan_on_zero_entries(self, rows):
        self._assert_matches_scan(rows, _edge_uniforms(_kernel_for(rows)))

    def test_row_end_draws_last_positive_state(self):
        # Ten kernel entries of 0.1 sum to 0.9999999999999999, so a uniform
        # in [C[lp], 1) lies at or above every cumulative entry of row 0,
        # the trailing zero-probability state's included.
        rows = np.ones((11, 11))
        rows[0, 10] = 0.0
        kernel = _kernel_for(rows)
        cumsum, last_positive = inverse_cdf_tables(kernel)
        lp = int(last_positive[0])
        # C[lp] is the largest float below 1, the only uniform in [C[lp], 1).
        assert lp == 9 and cumsum[0, lp] == np.nextafter(1.0, 0.0)
        u = np.full(4, cumsum[0, lp])
        assert ((cumsum[0] <= u[:, None]).sum(axis=1) == 11).all()
        current = np.zeros(u.shape[0], dtype=np.int64)
        np.testing.assert_array_equal(
            _step_states(build_sampler(decompose(unchecked(rows))), current, u),
            lp)
        np.testing.assert_array_equal(
            step_states_reference(kernel, current, u), lp)

    def test_guide_counts_entries_one_bucket_low(self):
        sampler = _sampler_for(_skewed_matrix())
        n = sampler.n
        thresholds = (np.arange(n) - 1) / n
        expected = (sampler.cumulative[:, None, :]
                    <= thresholds[None, :, None]).sum(axis=2)
        np.testing.assert_array_equal(sampler.guide, expected)


class TestSampleExcursion:
    def test_deterministic_chain(self):
        kernel = _kernel_for(FLIP)
        rng = np.random.default_rng(0)
        for _ in range(20):
            exc = sample_excursion(kernel, 0, rng, cap=10)
            assert isinstance(exc, Excursion)
            np.testing.assert_array_equal(exc.visits, [0, 1])
            assert exc.return_time == 2

    def test_truncation_when_cap_too_small(self):
        kernel = _kernel_for(FLIP)
        rng = np.random.default_rng(0)
        out = sample_excursion(kernel, 0, rng, cap=1)
        assert isinstance(out, Truncation)
        assert out.cap == 1

    def test_geometric_mean_return(self):
        kernel = _kernel_for(FAIR)
        rng = np.random.default_rng(42)
        taus = [sample_excursion(kernel, 0, rng, cap=10**4).return_time
                for _ in range(20_000)]
        assert abs(np.mean(taus) - 2.0) < 0.05

    def test_zero_probability_states_never_drawn(self):
        # State 1 is unreachable; only 0 <-> 2 transitions occur.
        kernel = _kernel_for([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [2.0, 0.0, 2.0]])
        rng = np.random.default_rng(9)
        for _ in range(200):
            exc = sample_excursion(kernel, 0, rng, cap=10**4)
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

    @pytest.mark.parametrize("k", [-1, 2])
    def test_base_state_out_of_range(self, k):
        with pytest.raises(InvalidArgument):
            sample_batch(_sampler_for(FAIR), k, count=10, seed=0, cap=10,
                         shards=1)

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
        assert (batch.lengths <= 10**5).all()
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
            nxt = _step_states(sampler, np.full(draws, i), u)
            freq = np.bincount(nxt, minlength=matrix.n) / draws
            np.testing.assert_allclose(freq, decomp.kernel[i], atol=0.005)
            positive = decomp.kernel[i] > 0
            expected = decomp.kernel[i][positive] * draws
            observed = freq[positive] * draws
            chi2 = float(((observed - expected) ** 2 / expected).sum())
            assert chi2 < CHI2_99[max(int(positive.sum()) - 1, 1)]
            assert freq[~positive].sum() == 0.0


class TestFrozenStream:
    """The sampler's output is part of every report, so it is frozen here.

    Each case pins a sha256 of ``states`` then ``lengths`` (int64, little
    endian), the truncation count and the per-shard path counts.  A change
    to the random stream must fail these and declare itself.
    """

    CASES = {
        "dense-uniform-100": (
            lambda: np.random.default_rng(100).uniform(0.5, 2.0, (100, 100)),
            dict(k=0, count=2000, seed=11, cap=10**6, shards=2),
            "56d0e3c7b709beec64400033c98f252f84e190a6aaf03ed4b15b02997a0df397",
            0, [1000, 1000]),
        "sparse-skewed-12": (
            _skewed_matrix,
            dict(k=0, count=5000, seed=12, cap=10**6, shards=4),
            "def78b222c7e248dba0cd53a763f995887351e6c3a3b51576e850aba9d8b89ed",
            0, [1250, 1250, 1250, 1250]),
        "sticky-truncating": (
            lambda: [[0.0, 1.0], [1.0, 500.0]],
            dict(k=0, count=2000, seed=8, cap=1000, shards=3),
            "d1e9f4c2ba9ef40f0738c567c920d1fdbf376efc0520d90a440e1a12a1a50a50",
            269, [577, 585, 569]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_batch_is_frozen(self, name):
        make, kwargs, digest, truncated, per_shard = self.CASES[name]
        batch = sample_batch(_sampler_for(make()), **kwargs)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(batch.states, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(batch.lengths, dtype="<i8").tobytes())
        assert h.hexdigest() == digest
        assert batch.states.dtype == np.int64
        assert batch.lengths.dtype == np.int64
        assert batch.truncated_count == truncated
        assert batch.shard_path_counts.tolist() == per_shard
