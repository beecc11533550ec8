import dataclasses
import hashlib
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from perronmc import chain_sim, estimator
from perronmc.chain_sim import _step_states, build_sampler, mix_seed, sample_batch
from perronmc.errors import AllTruncated, InvalidArgument
from perronmc.matrix_core import RowDecomposition, decompose, validate

from _support import (
    CHI2_99,
    Excursion,
    Truncation,
    excursions,
    inverse_cdf_tables,
    random_primitive_matrix,
    sample_batch_by_shard,
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", [np.int64, np.uint64, np.int8,
                                      np.uint32])
    def test_numpy_integers_mix_as_python_ints(self, kind):
        # A fixed-width seed would overflow (int64) or wrap with a warning
        # (uint64) in the mix's arithmetic; it is taken as its value.
        for seed, index in [(1, 0), (0, 1), (127, 7)]:
            got = mix_seed(kind(seed), kind(index))
            assert type(got) is int
            assert got == mix_seed(seed, index)
        if np.iinfo(kind).max >= 2**64 - 1:
            assert mix_seed(kind(2**64 - 1), 7) == 4638043754431676516


class TestStreams:
    """``_streams`` re-implements the seeding of ``np.random.default_rng``:
    numpy's SeedSequence hash, vectorised over the streams of a block.  The
    reference is numpy itself, so a numpy release that changes SeedSequence
    fails here first."""

    REFERENCE = ("numpy's SeedSequence/default_rng is the reference; "
                 "_seed_words re-implements its hash")

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63,
                                      2**64 - 1, -(2**40) - 7, 2**64 + 12345])
    @pytest.mark.parametrize("lo", [0, 1023, 1024, 10**6])
    def test_matches_default_rng(self, seed, lo):
        hi = lo + 24
        mixed = chain_sim._mix_seeds(seed, lo, hi)
        words = chain_sim._seed_words(mixed)
        rngs = chain_sim._streams(seed, lo, hi)
        assert mixed.dtype == np.uint64 and words.shape == (hi - lo, 4)
        assert len(rngs) == hi - lo
        for t, m, w, rng in zip(range(lo, hi), mixed.tolist(), words, rngs):
            assert m == mix_seed(seed, t)
            expected = np.random.SeedSequence(m).generate_state(4, np.uint64)
            assert w.tolist() == expected.tolist(), (
                f"seed words of stream {t} differ: {self.REFERENCE}")
            assert (rng.bit_generator.state
                    == np.random.default_rng(m).bit_generator.state), (
                f"PCG64 state of stream {t} differs: {self.REFERENCE}")

    def test_streams_draw_the_reference_sequence(self):
        for t, rng in enumerate(chain_sim._streams(3, 0, 4)):
            ref = np.random.default_rng(mix_seed(3, t))
            np.testing.assert_array_equal(rng.random(5), ref.random(5))
            assert rng.poisson(7.5) == ref.poisson(7.5)

    def test_empty_range(self):
        assert chain_sim._streams(9, 5, 5) == []

    def test_package_import_leaves_numpy_random_unloaded(self):
        # _streams imports numpy.random when called, so that importing the
        # CLI does not pay for it.  numpy 1.x loads numpy.random with numpy
        # itself; what is checked is that perronmc.cli adds none of it.
        src = str(Path(chain_sim.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy\n"
                "def loaded():\n"
                "    return {m for m in sys.modules\n"
                "            if m.startswith('numpy.random')}\n"
                "before = loaded(); import perronmc.cli\n"
                "print(sorted(loaded() - before))")
        done = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "[]"


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

    def test_peak_memory_beyond_the_tables(self):
        # At N = 600 the guide's rows go in 23 blocks, each holding about
        # 12 bytes a bucket for its histogram and first buckets, 0.8 MiB
        # in all; one int64 histogram of every row's M + 1 buckets would
        # alone take 11 MiB.
        n = 600
        decomp = decompose(validate(
            np.random.default_rng(600).uniform(0.5, 2.0, (n, n))))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            sampler = build_sampler(decomp)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        tables = sampler.cumulative.nbytes + sampler.guide.nbytes
        assert peak - tables <= 24 * chain_sim._BUILD_BLOCK


def _edge_uniforms(kernel, rows=slice(None)):
    """Uniforms on and beside every bucket edge b / M and every cumulative
    sum of the kernel's ``rows``, plus the ends of [0, 1)."""
    m = chain_sim.BUCKETS_PER_STATE * kernel.shape[0]
    cumsum = np.cumsum(kernel[rows], axis=-1)
    points = np.concatenate((np.arange(m) / m, cumsum.ravel()))
    u = np.concatenate((points, np.nextafter(points, -1.0),
                        np.nextafter(points, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]))
    return np.unique(u[(u >= 0.0) & (u < 1.0)])


def _on_threshold_rows(n, seed):
    """Rows of whole weights that sum to M = BUCKETS_PER_STATE * N, some of
    them zero, so that many cumulative sums land exactly on a bucket
    threshold (b - 1) / M."""
    m = chain_sim.BUCKETS_PER_STATE * n
    rng = np.random.default_rng(seed)
    p = rng.random((n, n)) ** 4
    return np.stack([rng.multinomial(m, row / row.sum()) for row in p])


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
        m = chain_sim.BUCKETS_PER_STATE * sampler.n
        thresholds = (np.arange(m) - 1) / m
        expected = (sampler.cumulative[:, None, :]
                    <= thresholds[None, :, None]).sum(axis=2)
        np.testing.assert_array_equal(sampler.guide, expected)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    def test_equals_full_scan_on_threshold_rows(self, n):
        rows = _on_threshold_rows(n, seed=n)
        kernel = _kernel_for(rows)
        sampler = build_sampler(decompose(unchecked(rows)))
        m = chain_sim.BUCKETS_PER_STATE * n
        if n > 1:
            landed = np.isin(sampler.cumulative, (np.arange(m) - 1) / m)
            assert landed.any()
        # Each row meets the edges and its own sums, a few rows at a time,
        # so the scan's (walkers, N) table stays small.
        for lo in range(0, n, 4):
            block = range(lo, min(lo + 4, n))
            edges = [_edge_uniforms(kernel, i) for i in block]
            current = np.repeat(block, [e.shape[0] for e in edges])
            u = np.concatenate(edges)
            np.testing.assert_array_equal(
                _step_states(sampler, current, u),
                step_states_reference(kernel, current, u))

    @pytest.mark.parametrize("n", [2, 11, 255, 256, 257])
    def test_guide_is_exact_on_and_beside_every_threshold(self, n):
        # Row [c, 1 - c, 0, ...] has c itself as its first cumulative
        # entry, so every threshold and its float neighbours meet the
        # build's one-step corrections, both ways.
        m = chain_sim.BUCKETS_PER_STATE * n
        thresholds = (np.arange(m) - 1) / m
        values = np.concatenate((thresholds, np.nextafter(thresholds, -1.0),
                                 np.nextafter(thresholds, 2.0)))
        values = np.unique(values[(values >= 0.0) & (values < 1.0)])
        for lo in range(0, values.size, n):
            c = values[lo:lo + n]
            kernel = np.zeros((n, n))
            kernel[:, 0] = 1.0
            kernel[:c.size, 0] = c
            kernel[:c.size, 1] = 1.0 - c
            sampler = build_sampler(
                RowDecomposition(fitness=np.ones(n), kernel=kernel))
            expected = [np.searchsorted(row, thresholds, side="right")
                        for row in sampler.cumulative]
            np.testing.assert_array_equal(sampler.guide, expected)

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    def test_guide_is_no_larger_than_an_int64_square(self, n):
        sampler = _sampler_for(_on_threshold_rows(n, seed=n))
        assert sampler.guide.shape == (n, chain_sim.BUCKETS_PER_STATE * n)
        assert sampler.guide.dtype == np.min_scalar_type(n)
        assert sampler.guide.nbytes <= 8 * n * n


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

    @pytest.mark.parametrize("n,count,bound,shards", [
        pytest.param(100, 20_000, 3.0, 1, id="1"),
        pytest.param(100, 20_000, 3.0, 4, id="4"),
        pytest.param(300, 4_000, 4.5, 1, id="uint16-1"),
        pytest.param(300, 4_000, 4.5, 4, id="uint16-4"),
    ])
    def test_peak_memory_per_visit(self, n, count, bound, shards):
        # Long excursions (mean tau ~ N): more than 1M visits.  The walk
        # adds the early steps' visits into per-step sums, and records the
        # tail's as states in the guide table's dtype (uint8 at N = 100,
        # uint16 at N = 300) plus a 1-byte keep mask, which the batch keeps
        # as it is.  A record of every step took about 2.6 bytes a visit,
        # int32 states 5.6, int64 records and output 24.5, and rebuilding
        # the paths in path order 9.7.
        matrix = validate(
            np.random.default_rng(100).uniform(0.5, 2.0, (n, n)).tolist())
        sampler = build_sampler(decompose(matrix))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            batch = sample_batch(sampler, 0, count=count, seed=3,
                                 cap=10**6, shards=shards)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        visits = int(batch.lengths.sum())
        assert visits > 10**6
        assert peak <= bound * visits
        assert batch.tail
        assert all(visited.dtype == sampler.guide.dtype
                   for _, visited in batch.tail)

    @pytest.mark.parametrize("shards", [1, 4])
    def test_batch_retains_under_a_byte_per_visit(self, shards):
        # The dense uniform 100x100, 20,000 attempts, about 2M visits: the
        # batch keeps the early steps as 8-byte sums per state and shard
        # row, the tail's record and the per-attempt arrays, about 0.3
        # bytes a visit (tracemalloc of what the batch still holds once
        # the walk has returned).  A record of every step held 2.4.
        sampler = _sampler_for(_dense_uniform_100().entries)
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            batch = sample_batch(sampler, 0, count=20_000, seed=3,
                                 cap=10**6, shards=shards)
            held = tracemalloc.get_traced_memory()[0] - live
        finally:
            tracemalloc.stop()
        visits = int(batch.lengths.sum())
        assert visits > 10**6
        assert batch.shifts.size > 0 and batch.tail
        assert held <= 1.0 * visits

    def test_peak_memory_of_a_short_walk_of_many_walkers(self):
        # A master-sequence kernel: about 80% of the 100,000 walkers
        # return at step 1 and the walk takes a few steps.  Step 1 runs in
        # blocks from the base state and keeps only its survivors, so the
        # walk holds the 16 bytes an attempt of return times and log sums,
        # the 20% that survive step 1 and one block.  It peaked at
        # 2,659,479 bytes here (numpy 2.4.6); the bound leaves 10% above
        # that.  The walk that took step 1 over every walker at once
        # peaked at 6.75 MB.
        sampler = build_sampler(decompose(_master_shaped(200)))
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            batch = sample_batch(sampler, 0, count=100_000, seed=0,
                                 cap=10**6, shards=8)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert batch.lengths.mean() < 1.5
        assert peak < 2_925_000

    @pytest.mark.parametrize("n,shards", [
        (100, 1), (100, 4), (255, 3), (256, 3), (257, 3)])
    def test_narrow_record_estimates_as_a_wide_one(self, monkeypatch, n,
                                                   shards):
        # The tally casts each tail step's states to intp, so the record's
        # dtype changes none of its arithmetic.  The guide's dtype, and so
        # the record's, is uint8 up to N = 255, where the guide holds
        # counts up to 255, and uint16 from N = 256; at N = 257 the
        # largest state, 256, no longer fits in uint8, and the tail's
        # record holds it.
        matrix = validate(
            np.random.default_rng(n).uniform(0.5, 2.0, (n, n)).tolist())
        assert build_sampler(decompose(matrix)).guide.dtype == (
            np.uint8 if n <= 255 else np.uint16)
        config = estimator.EstimationConfig(samples=2_000, seed=4,
                                            shards=shards)
        narrow = estimator.run_estimation(matrix, config)

        def widened(*args):
            batch = sample_batch(*args)
            assert any((visited == n - 1).any() for _, visited in batch.tail)
            tail = tuple((keep, visited.astype(np.int64))
                         for keep, visited in batch.tail)
            return dataclasses.replace(batch, tail=tail)

        monkeypatch.setattr(estimator, "sample_batch", widened)
        wide = estimator.run_estimation(matrix, config)
        for field in dataclasses.fields(narrow):
            a, b = getattr(narrow, field.name), getattr(wide, field.name)
            assert (a is None) == (b is None), field.name
            if a is not None:
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert narrow.u_hat[n - 1] > 0.0


def _dense_uniform_100():
    return validate(
        np.random.default_rng(100).uniform(0.5, 2.0, (100, 100)).tolist())


def _master_shaped(n):
    """The master-sequence kernel: the base column carries 4x each row's
    sum, so about 80% of walkers return at each step."""
    a = np.random.default_rng(n).uniform(0.5, 2.0, (n, n))
    a[:, 0] = 4.0 * a.sum(axis=1)
    return validate(a)


class TestOneWalk:
    """All shards walk together, and draw what each would draw alone."""

    @pytest.mark.parametrize("rows,count,shards,cap,truncated", [
        (FAIR, 1_000, 1, 10**6, False),
        (FAIR, 1_000, 2, 10**6, False),
        (FAIR, 1_001, 3, 10**6, False),
        (FAIR, 997, 7, 10**6, False),
        (FAIR, 1_000, 8, 10**6, False),
        # Fewer attempts than shards: the last shards hold none.
        (FAIR, 5, 8, 10**6, False),
        (FAIR, 1, 3, 10**6, False),
        ([[0.0, 1.0], [1.0, 500.0]], 2_000, 3, 1_000, True),
        ([[0.0, 1.0], [1.0, 500.0]], 500, 8, 300, True),
        ([[2.5]], 100, 7, 10, False),
        (_skewed_matrix(), 3_000, 7, 10**6, False),
    ])
    def test_equals_the_per_shard_walk(self, rows, count, shards, cap,
                                       truncated):
        sampler = _sampler_for(rows)
        for seed in (0, 41):
            got = sample_batch(sampler, 0, count, seed, cap, shards)
            ref = sample_batch_by_shard(sampler, 0, count, seed, cap, shards)
            assert got.states.dtype == ref.states.dtype == np.int32
            assert got.lengths.dtype == ref.lengths.dtype == np.int64
            assert got.states.tobytes() == ref.states.tobytes()
            assert got.lengths.tobytes() == ref.lengths.tobytes()
            assert got.log_sums.tobytes() == ref.log_sums.tobytes()
            assert got.truncated_count == ref.truncated_count
            assert (got.truncated_count > 0) == truncated
            assert got.shard_path_counts.dtype == np.int64
            assert (got.shard_path_counts.tolist()
                    == ref.shard_path_counts.tolist())

    @pytest.mark.parametrize("rows,cap", [
        (_dense_uniform_100, 10**6),
        (lambda: validate([[0.0, 1.0], [1.0, 500.0]]), 1_000),
    ])
    def test_walks_as_long_as_the_longest_excursion(self, monkeypatch, rows,
                                                    cap):
        # Walked shard by shard, the 8 shards of the dense 100x100 take
        # 6,697 steps where the longest of their paths has 1,040.  Step 1
        # is taken in blocks, a _step_states call each from the base state,
        # and every later step is one call with a walker array.
        first, later = [], []

        def counted(sampler, current, u):
            (first if np.ndim(current) == 0 else later).append(u.size)
            return step_states(sampler, current, u)

        step_states = chain_sim._step_states
        monkeypatch.setattr(chain_sim, "_step_states", counted)
        monkeypatch.setattr(chain_sim, "_FIRST_STEP_BLOCK", 1_000)
        batch = sample_batch(_sampler_for(rows().entries), 0, count=20_000,
                             seed=3, cap=cap, shards=8)
        walks, expected = 1, int(batch.lengths.max())
        if batch.truncated_count:
            # The dense steps are walked again, with the truncated walkers
            # at weight 0.
            assert batch.shifts.size > 0
            walks, expected = 2, cap + batch.shifts.size
        assert walks + len(later) == expected
        # Each shard's 2,500 attempts take ceil(2,500 / 1,000) blocks.
        assert first == [1_000, 1_000, 500] * 8 * walks

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("rows,k,count,cap,shards", [
        pytest.param(_dense_uniform_100, 0, 3_000, 10**6, 1, id="1-shard"),
        pytest.param(_dense_uniform_100, 0, 3_000, 10**6, 3, id="3-shards"),
        pytest.param(_dense_uniform_100, 0, 3_000, 10**6, 8, id="8-shards"),
        # Most walkers return at step 1.
        pytest.param(lambda: _master_shaped(50), 0, 3_000, 10**6, 3,
                     id="master"),
        # Truncations: the dense steps are walked again with them dead.
        pytest.param(lambda: validate([[0.0, 1.0], [1.0, 500.0]]), 0, 2_000,
                     300, 3, id="truncating"),
        # 3 B x 200 walkers < 8 B x 3 rows x 100 states: recorded from
        # step 1.
        pytest.param(_dense_uniform_100, 0, 200, 10**6, 3, id="recorded"),
        pytest.param(_dense_uniform_100, 4, 3_000, 10**6, 3,
                     id="base-state-4"),
    ])
    def test_first_step_blocks_change_no_bit(self, monkeypatch, block, rows,
                                             k, count, cap, shards):
        sampler = _sampler_for(rows().entries)

        def walked():
            batch = sample_batch(sampler, k, count, 5, cap, shards)
            values = [(f.name, getattr(batch, f.name))
                      for f in dataclasses.fields(batch)
                      if f.name not in ("sampler", "tail")]
            values += [(f"tail[{i}]", a) for i, step in enumerate(batch.tail)
                       for a in step]
            return batch, values + [("states", batch.states)]

        default, want = walked()
        monkeypatch.setattr(chain_sim, "_FIRST_STEP_BLOCK", block)
        _, got = walked()
        assert [name for name, _ in got] == [name for name, _ in want]
        for (name, a), (_, b) in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        if count == 200:
            assert default.shifts.size == 0
        if cap == 300:
            assert default.truncated_count > 0 and default.shifts.size > 0

    def test_generators_only_for_shards_that_hold_attempts(self,
                                                            monkeypatch):
        seeds = []

        def counted(seed, lo, hi):
            seeds.extend(range(lo, hi))
            return streams(seed, lo, hi)

        streams = chain_sim._streams
        monkeypatch.setattr(chain_sim, "_streams", counted)
        batch = sample_batch(_sampler_for(FAIR), 0, count=20, seed=5,
                             cap=10**6, shards=10**6)
        assert seeds == list(range(20))
        assert batch.shard_path_counts.shape == (10**6,)
        assert batch.shard_path_counts[:20].tolist() == [1] * 20
        assert not batch.shard_path_counts[20:].any()


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
        assert batch.states.dtype == np.int32
        assert batch.lengths.dtype == np.int64
        assert batch.truncated_count == truncated
        assert batch.shard_path_counts.tolist() == per_shard

    # sha256 of the walk's own outputs, in the order the test hashes them.
    WALK_DIGESTS = {
        "dense-uniform-100":
            "7ca4f3b3588ac21d97caa67a725a8d8678eebfe41d54be9ae8b865995a4737d2",
        "sparse-skewed-12":
            "56ed08152d3a61ffcd0f8b2f2c7144db6ea2cdd8641a67fdad013cde1a766459",
        "sticky-truncating":
            "49f3527e2633a52083316be4e767002eb1e37d1cdcbe01a918fffda1d712fc05",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_walk_outputs_are_frozen(self, name):
        # The batch as the walk leaves it, with no walk again: the return
        # times, the paths' log sums, the dense steps' sums and shifts,
        # each tail step's keep mask and states, and the tail's sums.
        # ``states`` above walks the stream again, so it cannot see these.
        make, kwargs = self.CASES[name][:2]
        batch = sample_batch(_sampler_for(make()), **kwargs)
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(batch.return_times, "<i8").tobytes())
        h.update(np.ascontiguousarray(batch.log_sums, "<f8").tobytes())
        h.update(np.asarray(batch.dense.shape, "<i8").tobytes())
        h.update(np.ascontiguousarray(batch.dense, "<f8").tobytes())
        h.update(np.ascontiguousarray(batch.shifts, "<f8").tobytes())
        h.update(np.asarray([len(batch.tail)], "<i8").tobytes())
        for keep, visited in batch.tail:
            h.update(np.ascontiguousarray(keep, "u1").tobytes())
            h.update(np.ascontiguousarray(visited, "<i8").tobytes())
        h.update(np.ascontiguousarray(batch.tail_sums, "<f8").tobytes())
        assert h.hexdigest() == self.WALK_DIGESTS[name]
