"""First-return excursion sampling for the embedded Markov chain.

An excursion from base state ``k`` is the path ``X_0 = k, X_1, ...`` of the
chain driven by the row-stochastic kernel, stopped at the first step ``tau``
with ``X_tau = k``.  Paths that fail to return within a hard length cap are
counted as truncations rather than silently dropped.

Each step is an inverse-CDF draw: from state ``i`` with uniform ``u`` the
next state is ``#{j : C[i, j] <= u}``.  ``C`` holds the kernel's row-wise
cumulative sums before the row's last positive state and the sentinel 2.0
from there on (Knuth, TAOCP vol. 3, 6.1, Algorithm Q): no uniform in
[0, 1) reaches it, so no count passes the row's end or lands on a
zero-probability state, however the row's sum rounds.  A guide table
(Chen & Asau, 1974; Devroye 1986, III.2.4) finds that count in O(1)
expected time, not by reading the whole row.  Each row has
``M = BUCKETS_PER_STATE * N`` buckets: bucket ``b = int(u * M)`` stores how
many entries of ``C[i]`` are at or below ``(b - 1) / M``, a point every
``u`` in the bucket lies above, so the count starts there and advances
over the entries in ``((b - 1) / M, u]``, about ``2N / M = 0.5`` of them on
average.  Rows are non-decreasing, so the search stops at exactly the
count a full scan gives: the table changes the cost of a step, never its
result, and the random stream is the one a full scan draws.

Reproducibility contract: :func:`sample_batch` is a pure function of
``(kernel, k, count, seed, cap, shards)``.  Attempts are assigned to shards
in contiguous blocks of ``ceil(count / shards)``; shard ``s`` draws from
stream ``s`` of ``seed``: the generator ``np.random.default_rng`` builds
from ``mix_seed(seed, s)``, the SplitMix64 mix documented below.
:func:`_streams` builds the streams of a range of indices bit for bit,
hashing their seeds as numpy's SeedSequence does in one vector pass
instead of one seed at a time; the branching simulator seeds its trees
with it too.  All shards walk together; at each step a shard draws one
uniform per walker it still has out, in walker order, as it would walking
alone, so the result does not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import AllTruncated, check_base_state, check_counts
from .matrix_core import RowDecomposition

__all__ = [
    "RowSampler",
    "SampleBatch",
    "mix_seed",
    "build_sampler",
    "sample_batch",
]

# Guide buckets per state.  A uniform's window then holds about 2 / 4 = 0.5
# of its row's entries on average, and a row of 4N uint16 entries takes the
# 8N bytes of N int64 ones.
BUCKETS_PER_STATE = 4
# Entries of the cumulative table handled at once by build_sampler.
_BUILD_BLOCK = 1 << 18

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix_seed(seed: int, index: int) -> int:
    """Derive the stream seed for (seed, index) with the SplitMix64 finalizer.

    The base seed is advanced by ``index + 1`` golden-ratio increments and
    passed through the standard xor-shift/multiply finalizer.  The constants
    are fixed so batches are reproducible everywhere.
    """
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """``mix_seed(seed, t)`` for ``t`` in ``[lo, hi)``, as uint64.

    Every constant is a numpy scalar of the array's dtype, so the arithmetic
    wraps mod 2**64 under both numpy 1.x's and NEP 50's promotion rules.
    """
    z = (np.uint64(seed & _MASK64)
         + np.arange(lo + 1, hi + 1, dtype=np.uint64) * np.uint64(_GOLDEN))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def _hash_constants(init: int, mult: int, calls: int):
    """The constants of ``calls`` successive calls of numpy's SeedSequence
    hash: call ``i`` xors its word with ``init * mult**i`` and multiplies
    it by ``init * mult**(i + 1)``, mod 2**32.  Returned as two uint64
    columns, one row per call."""
    steps = [init * pow(mult, i, 1 << 32) & _MASK32 for i in range(calls + 1)]
    return (np.array(steps[:-1], dtype=np.uint64)[:, None],
            np.array(steps[1:], dtype=np.uint64)[:, None])


# numpy's SeedSequence: its pool of 4 words, filled and mixed by 16 hash
# calls, then 8 calls that draw 8 32-bit words from it.
_POOL = 4
_POOL_XOR, _POOL_MUL = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE_XOR, _STATE_MUL = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of 32-bit words held in uint64, one call per row.

    Only uint64 arithmetic runs, masked to 32 bits after the product, and
    every constant is a uint64 array or scalar, so it wraps alike under
    numpy 1.x's and NEP 50's promotion rules.
    """
    value = ((value ^ xor) * mul) & np.uint64(_MASK32)
    return value ^ (value >> np.uint64(16))


def _seed_words(z: np.ndarray) -> np.ndarray:
    """Row ``t`` is ``SeedSequence(int(z[t])).generate_state(4, np.uint64)``,
    for a uint64 array ``z``, hashed for all seeds at once.

    The entropy of a seed is its low and high 32-bit words; a seed below
    2**32 has one word, and SeedSequence fills the pool past the entropy
    with the hash of 0, so its high word 0 hashes the same.  The rows are
    C-contiguous, since PCG64 reads a row's memory directly.
    """
    pool = np.zeros((_POOL, z.size), dtype=np.uint64)
    pool[0] = z & np.uint64(_MASK32)
    pool[1] = z >> np.uint64(32)
    pool = _hash(pool, _POOL_XOR[:_POOL], _POOL_MUL[:_POOL])
    # Each word is mixed into every other word in turn, so late words
    # affect earlier ones.  While word src is mixed in it does not change,
    # so its three hashes, one per other word, are taken at once.
    for src in range(_POOL):
        call = _POOL + (_POOL - 1) * src
        hashed = _hash(pool[src], _POOL_XOR[call:call + _POOL - 1],
                       _POOL_MUL[call:call + _POOL - 1])
        dst = [i for i in range(_POOL) if i != src]
        mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & np.uint64(_MASK32)
        pool[dst] = mixed ^ (mixed >> np.uint64(16))
    # Eight 32-bit words from the pool in cycle, paired little-endian with
    # | and <<, not a view, so the result does not depend on the host's
    # byte order.
    half = _hash(np.tile(pool, (2, 1)), _STATE_XOR, _STATE_MUL)
    words = half[0::2] | (half[1::2] << np.uint64(32))
    return np.ascontiguousarray(words.T)


@cache
def _row_seed_sequence() -> type:
    """A seed sequence whose state is one row of :func:`_seed_words`.

    Defined on first use, so that importing the package does not load
    ``numpy.random``, and once, so that every stream shares the class.
    """
    from numpy.random.bit_generator import ISeedSequence

    class RowSeedSequence(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 asks for exactly these four uint64 words.
            return self.words

    return RowSeedSequence


def _streams(seed: int, lo: int, hi: int) -> list:
    """The generators ``np.random.default_rng(mix_seed(seed, t))`` for ``t``
    in ``[lo, hi)``, bit for bit.

    The seeds are mixed and hashed in one vector pass (:func:`_seed_words`);
    each row then seeds ``PCG64``, which sets its state from the row as it
    does from numpy's own SeedSequence.
    """
    from numpy.random import PCG64, Generator

    row_seed = _row_seed_sequence()
    return [Generator(PCG64(row_seed(row)))
            for row in _seed_words(_mix_seeds(seed, lo, hi))]


@dataclass(frozen=True)
class RowSampler:
    """Inverse-CDF sampling tables for one transition kernel.

    Attributes:
        cumulative: (N, N) row-wise cumulative probabilities before each
            row's last positive state, and the sentinel 2.0 from that state
            on; each row is non-decreasing.
        guide: (N, M) guide table, ``M = BUCKETS_PER_STATE * N``, in the
            narrowest unsigned dtype that holds N (uint8 up to N = 255,
            uint16 up to 65,535), so it takes no more than the 8 N^2 bytes
            of an (N, N) int64 table in that range: 40 KB at N = 100, 32 MB
            at N = 2,000.  ``guide[i, b]`` is the number of entries of
            ``cumulative[i]`` at or below ``(b - 1) / M``.  A uniform ``u``
            with ``int(u * M) == b`` is at least ``b / M`` up to rounding,
            far above that threshold, so every entry counted is ``<= u`` and
            the exact count is ``guide[i, b]`` plus the entries in
            ``((b - 1) / M, u]``.  That interval is shorter than ``2 / M``,
            so a uniform finds fewer than ``2N / M = 0.5`` of the row's N
            entries in it on average.
    """

    cumulative: np.ndarray
    guide: np.ndarray

    @property
    def n(self) -> int:
        return self.cumulative.shape[0]


@dataclass(frozen=True)
class SampleBatch:
    """A deterministic batch of first-return excursions from one base state.

    The visit sequences are stored flat (``states``, int32) with one length
    per kept excursion (``lengths``, int64), ordered by attempt; each starts
    at the base state.  Truncated attempts are excluded but counted.
    """

    states: np.ndarray
    lengths: np.ndarray
    truncated_count: int
    shard_path_counts: np.ndarray

    @property
    def path_count(self) -> int:
        """Number of non-truncated excursions."""
        return int(self.lengths.shape[0])

    @property
    def attempted(self) -> int:
        return self.path_count + self.truncated_count

    @cached_property
    def offsets(self) -> np.ndarray:
        """Start index of each excursion inside ``states``."""
        out = np.zeros(self.lengths.shape[0], dtype=np.int64)
        np.cumsum(self.lengths[:-1], out=out[1:])
        return out


def build_sampler(decomp: RowDecomposition) -> RowSampler:
    """Build the cumulative rows, each set to the sentinel 2.0 from its last
    positive state on, and their guide table of ``M = BUCKETS_PER_STATE * N``
    buckets a row.

    The guide costs O(N * M), done once per kernel with no loop over rows:
    each entry's first bucket comes from ``int(c * M)`` and one threshold
    compared with the entry, each bucket that an entry reaches first gets
    that entry's count, and a running maximum along the row fills the
    rest.  Rows go in blocks of about ``_BUILD_BLOCK`` entries, so the
    build holds little beyond the two tables it returns: at N = 2,000 it
    peaks at 66 MiB (tracemalloc), of which the tables are 61 MiB.
    """
    cumulative = np.cumsum(decomp.kernel, axis=1)
    n = cumulative.shape[1]
    # Every row has a positive entry because the fitness is a positive sum.
    last_positive = n - 1 - np.argmax(decomp.kernel[:, ::-1] > 0.0, axis=1)
    cumulative[np.arange(n) >= last_positive[:, None]] = 2.0
    m = BUCKETS_PER_STATE * n
    # One bucket low, so that rounding in u * M can never put a uniform
    # below its bucket's threshold.  Every threshold is below 1 < 2.0, so
    # no guide entry passes the sentinel.  at[b] is bucket b's threshold,
    # and at[M] = inf stands for the bucket past the end.
    at = np.append(np.arange(-1, m - 1) / m, np.inf)
    guide = np.zeros((n, m), dtype=np.min_scalar_type(n))
    flat = guide.reshape(-1)
    counts = np.broadcast_to(np.arange(1, n, dtype=guide.dtype), (n, n - 1))
    rows = max(1, _BUILD_BLOCK // n)
    for lo in range(0, n, rows):
        c = cumulative[lo:lo + rows]
        # The first bucket whose threshold is >= c[i, j], or M, is
        # low[i, j] + 1.  With e = int(c * M) it is e + 1 or e + 2, so
        # bucket e + 1's threshold decides: bucket e's, (e - 1) / M, lies
        # about 1 / M below c, and bucket e + 2's, the float nearest
        # (e + 1) / M, is not below c, for then (e + 1) / M would be below
        # c too and c * M would round to e + 1 or more.
        low = c * m
        np.minimum(low, m - 1, out=low)
        low = low.astype(np.intp)
        low += at[1:][low] < c
        # Bucket b counts the entries whose first bucket is <= b.  Entry j
        # is the last of its row to reach its first bucket when the next
        # entry's first bucket is later, and then that bucket counts j + 1
        # entries; a running maximum carries each count over the buckets
        # that no entry reaches first.  The row's last entry is the
        # sentinel, whose first bucket is M.
        last = low[:, :-1] < low[:, 1:]
        low += np.arange(lo * m + 1, (lo + c.shape[0]) * m, m)[:, None]
        flat[low[:, :-1][last]] = counts[:c.shape[0]][last]
        block = guide[lo:lo + rows]
        np.maximum.accumulate(block, axis=1, out=block)
    cumulative.flags.writeable = False
    guide.flags.writeable = False
    return RowSampler(cumulative=cumulative, guide=guide)


def _step_states(sampler: RowSampler, current: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Next state of each walker: ``#{j : C[i, j] <= u}``.

    Each count starts at the walker's guide entry and advances while the
    next cumulative entry is still ``<= u``; each pass touches only the
    walkers still advancing, and the row's sentinel stops every walker
    inside its row.  Cost is O(1) expected per walker.  ``u * M`` rounds
    below ``M`` for every ``u < 1``, so the bucket is always in range.
    """
    n = sampler.n
    m = sampler.guide.shape[1]
    cum = sampler.cumulative.reshape(-1)
    row = current * n
    pos = row + sampler.guide.reshape(-1)[current * m
                                          + (u * m).astype(np.intp)]
    todo = (cum[pos] <= u).nonzero()[0]
    while todo.size:
        p = pos[todo] + 1
        pos[todo] = p
        todo = todo[cum[p] <= u[todo]]
    return pos - row


def sample_batch(sampler: RowSampler, k: int, count: int, seed: int,
                 cap: int, shards: int) -> SampleBatch:
    """Sample ``count`` excursion attempts, split deterministically by shard.

    All shards walk together, each filling its slice of one uniform buffer,
    so the walk lasts as long as the longest excursion, or ``cap`` steps.
    Each step records only its ``keep`` mask and the kept walkers' new
    states as int32, 5 bytes per visit, and the scatter rebuilds the walker
    ids by applying the masks in order; the walk itself indexes with intp,
    so only the stored copy is narrowed.

    Args:
        sampler: tables from :func:`build_sampler`.
        k: base state, 0-based.
        count: number of attempts (>= 1).
        seed: 64-bit batch seed.
        cap: hard per-path length cap.
        shards: number of independent RNG streams; the batch is identical
            for fixed ``(seed, shards, count, cap)`` however it is executed.

    Raises:
        InvalidArgument: ``count``, ``shards`` or ``cap`` below 1, or ``k``
            not a state; the message counts states from 1.
        AllTruncated: every attempt hit the cap.
    """
    check_counts(count=count, shards=shards, cap=cap)
    check_base_state(k, sampler.n)

    block = -(-count // shards)
    # Only the first ceil(count / block) shards hold attempts.
    edges = np.minimum(np.arange(0, count + block, block), count)
    rngs = _streams(seed, 0, edges.size - 1)
    active = np.arange(count)
    current = np.full(count, k, dtype=np.intp)
    return_time = np.zeros(count, dtype=np.int64)
    u = np.empty(count)
    live = list(range(len(rngs)))
    record = []

    step = 0
    while active.size and step < cap:
        step += 1
        # Shard s's active walkers are active[ends[s]:ends[s + 1]]; a shard
        # whose walkers have all stopped never has any again.
        ends = active.searchsorted(edges).tolist()
        live = [s for s in live if ends[s] < ends[s + 1]]
        for s in live:
            rngs[s].random(out=u[ends[s]:ends[s + 1]])
        nxt = _step_states(sampler, current, u[:active.size])
        keep = nxt != k
        return_time[active[~keep]] = step
        active = active[keep]
        current = nxt[keep]
        record.append((keep, current.astype(np.int32)))

    kept = return_time > 0
    lengths = return_time[kept]
    if lengths.size == 0:
        raise AllTruncated(count, cap)
    # Walker w's path starts after the paths of the kept walkers before it;
    # truncated walkers have return time 0, so they take no room.
    start = np.cumsum(return_time) - return_time
    states = np.empty(int(lengths.sum()), dtype=np.int32)
    states[start[kept]] = k
    walkers = np.arange(count)
    for t, (keep, visited) in enumerate(record, start=1):
        walkers = walkers[keep]
        alive = kept[walkers] if active.size else slice(None)
        states[start[walkers[alive]] + t] = visited[alive]
    shard_path_counts = np.bincount(np.flatnonzero(kept) // block,
                                    minlength=shards)
    states.flags.writeable = False
    lengths.flags.writeable = False
    shard_path_counts.flags.writeable = False
    return SampleBatch(
        states=states,
        lengths=lengths,
        truncated_count=int(active.size),
        shard_path_counts=shard_path_counts,
    )
