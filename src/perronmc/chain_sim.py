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

A batch keeps no record of a visit while walkers are many: the walk adds
each step's visit weights into one N-vector per shard, relative to the
step's largest log weight, and records its steps only once walkers are so
few that a record takes less (see :class:`SampleBatch`).  On a dense
N = 100 chain with 20,000 attempts, 0.34 MB of sums and 0.05 MB of record
stand for 2M visits, which a record of every step held in 3.9 MB.  Nothing
in the pipeline rebuilds the paths in path order;
:attr:`SampleBatch.states` walks the stream again to do so on demand, and
:meth:`SampleBatch.tally` weighs the visits for the estimator.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .errors import (AllTruncated, check_base_state, check_counts,
                     check_integers)
from .matrix_core import RowDecomposition, _freeze, log_unit_scale

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
# Guide buckets, M + 1 a row, handled at once by build_sampler.
_BUILD_BLOCK = 1 << 16
# Bytes a walker in a recorded step: a keep-mask entry and a state in the
# guide's dtype, 1 or 2 bytes.  Bytes a state and shard row in a step's
# sums: one float64.
_RECORD_BYTES = 3
_SUM_BYTES = 8
# The log of the largest float: exp of it, and of anything below it, is
# finite.
_LOG_MAX = float(np.log(np.finfo(float).max))

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix_seed(seed: int, index: int) -> int:
    """Derive the stream seed for (seed, index) with the SplitMix64 finalizer.

    The base seed is advanced by ``index + 1`` golden-ratio increments and
    passed through the standard xor-shift/multiply finalizer.  The constants
    are fixed so batches are reproducible everywhere.  Numpy integers are
    taken as the Python ints they hold, so their fixed width never wraps
    the arithmetic.
    """
    seed, index = operator.index(seed), operator.index(index)
    z = (seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix_seeds(seed: int, lo: int, hi: int) -> np.ndarray:
    """``mix_seed(seed, t)`` for ``t`` in ``[lo, hi)``, as uint64.

    Every constant is a numpy scalar of the array's dtype, so the arithmetic
    wraps mod 2**64 under both numpy 1.x's and NEP 50's promotion rules.
    """
    z = (np.uint64(operator.index(seed) & _MASK64)
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
        log_fitness: ``log f~``, the logs of the row sums scaled by the
            power of two of :func:`~perronmc.matrix_core.log_unit_scale`;
            the walk sums them along each excursion.
    """

    cumulative: np.ndarray
    guide: np.ndarray
    log_fitness: np.ndarray

    @property
    def n(self) -> int:
        return self.cumulative.shape[0]


@dataclass(frozen=True)
class SampleBatch:
    """A deterministic batch of first-return excursions from one base state,
    held as the walk leaves it: per-step sums of the visit weights while
    walkers are many, and a record of the sparse steps after.

    Walker ``w`` makes attempt ``w``, and every walker starts at the base
    state.  Visit ``n`` of a path weighs ``exp(S_n - n t)`` at a trial
    ``t = log lam~``, where ``S_n = sum_{i < n} log f~(X_i)`` is the walk's
    running sum, so a path's return weight is ``exp(S_p - tau_p t)``, as
    the lam solve takes it.  The steps come in two runs:

    * Dense steps, ``n = 1 .. len(shifts)``.  Row ``r`` of ``dense[n - 1]``
      holds, per state, ``exp(S_n - shifts[n - 1])`` summed over the
      step-``n`` visits of shard ``r``'s walkers, where ``shifts[n - 1]`` is
      the largest ``S_n`` of the step; the weights at any ``t`` are that row
      times ``exp(shifts[n - 1] - n t)``.  Column ``k`` holds the return
      weights of the walkers that come back at the step, which no tally
      reads.  A step takes 8 bytes per state and row, whatever its walkers.
    * Tail steps, from the first step at which recording it takes less:
      ``3 B x walkers < 8 B x rows x N``.  Tail step ``i`` is ``(keep,
      states)``: ``keep`` is a mask over the walkers still out before the
      step, in walker order, true for those that do not return at it, and
      ``states`` holds those walkers' new states in the dtype of the
      sampler's guide table.

    Walker counts only fall, so the walk switches once.  A walker still out
    after the last step was truncated: it is counted, its return time is 0
    and its visits weigh 0.  Paths are the non-truncated attempts, in
    attempt order.  A batch holds at least one path: :func:`sample_batch`
    raises :class:`~perronmc.errors.AllTruncated` otherwise, and nothing
    downstream checks again.

    Attributes:
        base_state: the base state ``k``, 0-based.
        sampler, seed, cap, shards: the arguments of :func:`sample_batch`,
            of which the batch is a pure function; :attr:`states` walks
            again from them.
        return_times: per attempt, the step at which it returned, or 0.
        log_sums: per path, ``S_p = sum_{t < tau_p} log f~(X_t)`` with the
            sampler's ``log_fitness``, summed in the walk from zero.
        truncated_count: attempts that hit the cap.
        shard_path_counts: paths per shard.
        dense: the dense steps' sums, ``(steps, rows, N)``, with a row for
            each shard that holds attempts.
        shifts: per dense step, its largest ``S_n``.
        tail: the tail steps' record, as above.
        tail_sums: the ``S`` at the first tail step of each walker then
            out, in walker order, ``-inf`` for a walker that is later
            truncated; empty when the tail starts at step 1, where every
            ``S`` is ``log f~(k)``.
    """

    base_state: int
    sampler: RowSampler = field(repr=False)
    seed: int
    cap: int
    shards: int
    return_times: np.ndarray
    log_sums: np.ndarray
    truncated_count: int
    shard_path_counts: np.ndarray
    dense: np.ndarray = field(repr=False)
    shifts: np.ndarray = field(repr=False)
    tail: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    tail_sums: np.ndarray = field(repr=False)

    @property
    def log_fitness(self) -> np.ndarray:
        """The sampler's ``log_fitness``, ``log f~``."""
        return self.sampler.log_fitness

    @cached_property
    def lengths(self) -> np.ndarray:
        """``tau_p`` per path, int64."""
        if not self.truncated_count:
            return self.return_times
        return _freeze(self.return_times[self.return_times > 0])

    @property
    def path_count(self) -> int:
        """Number of non-truncated excursions."""
        return int(self.lengths.shape[0])

    @property
    def attempted(self) -> int:
        return int(self.return_times.shape[0])

    @cached_property
    def states(self) -> np.ndarray:
        """The paths' visits in path order, flat int32, each path starting
        at the base state.  The batch records its tail steps only, so the
        first use walks the same stream again, recording every step.
        :meth:`tally` never builds this array."""
        steps = _walk(self.sampler, self.base_state, self.attempted,
                      self.seed, self.cap, self.shards, dense=False)[5]
        kept = self.return_times > 0
        start = np.cumsum(self.return_times) - self.return_times
        states = np.empty(int(self.lengths.sum()), dtype=np.int32)
        states[start[kept]] = self.base_state
        walkers = np.arange(self.attempted)
        for t, (keep, visited) in enumerate(steps, start=1):
            walkers = walkers[keep]
            alive = kept[walkers] if self.truncated_count else slice(None)
            states[start[walkers[alive]] + t] = visited[alive]
        return _freeze(states)

    def tally(self, t: float) -> np.ndarray:
        """Per-state sums of the visit weights at ``t = log lam~``, one row
        per shard that holds paths.

        Visit ``n`` weighs ``exp(S_n - n t)``, so each path's first visit
        weighs exactly 1 and the base state's entries are the path counts.
        The summed steps take one product: each step's sums times
        ``exp(shifts[n - 1] - n t)``, shifted by the largest of those
        exponents.  The tail replays its record from ``tail_sums`` (from
        ``log f~(k)`` if it starts at step 1), adding ``log f~`` of each
        state left to ``S`` as the walk did, so its weights take the walk's
        own bits of ``S_n``.  Each tail step casts its states to intp once,
        since numpy's gathers and ``np.bincount`` would each convert the
        guide's dtype again, and adds its weights with one ``np.bincount``;
        a truncated walker, at ``S = -inf``, adds exactly 0.0.  The pass
        holds the table and the tail's walker-sized arrays.  A weight or a
        sum past the float range is inf.
        """
        n = self.sampler.n
        steps, rows = self.dense.shape[:2]
        table = np.zeros((rows, n))
        if steps:
            logs = self.shifts - np.arange(1, steps + 1) * t
            top = logs.max()
            np.exp(logs - top, out=logs)
            table = (logs @ self.dense.reshape(steps, -1)).reshape(rows, n)
            if top <= _LOG_MAX:
                table *= np.exp(top)
            else:
                # Only the sums that pass the float range go to inf.
                with np.errstate(divide="ignore"):
                    table = np.exp(np.log(table) + top)
        flat = table.reshape(-1)
        # Each tail walker's row, as an offset into the flat table: its
        # shard's.  None when there is one row.  The walkers out at the
        # first tail step are those that return after it or never.
        offset = None
        if rows > 1:
            times = self.return_times
            block = -(-self.attempted // self.shards)
            offset = np.flatnonzero((times > steps) | (times == 0))
            offset //= block
            offset *= n
        log_s = self.tail_sums
        if not steps:
            log_s = np.where(self.return_times > 0,
                             self.log_fitness[self.base_state], -np.inf)
        for step, (keep, visited) in enumerate(self.tail, start=steps + 1):
            states = visited.astype(np.intp)
            log_s = log_s[keep]
            weights = np.exp(log_s - step * t)
            log_s += self.log_fitness[states]
            if offset is not None:
                offset = offset[keep]
                states += offset
            flat += np.bincount(states, weights, minlength=flat.shape[0])
        counts = self.shard_path_counts[:rows]
        table[:, self.base_state] = counts
        return table[counts > 0]


def build_sampler(decomp: RowDecomposition) -> RowSampler:
    """Build the cumulative rows, each set to the sentinel 2.0 from its last
    positive state on, and their guide table of ``M = BUCKETS_PER_STATE * N``
    buckets a row.

    The guide costs O(N * M), done once per kernel with no loop over rows:
    each entry's first bucket, the first whose threshold is not below it,
    comes from ``int(c * M)`` and one threshold test, and a row's guide is
    the running sum of its histogram of first buckets, bucket M left out.
    Rows go in blocks of about ``_BUILD_BLOCK`` buckets, one ``np.bincount``
    a block, so the build holds little beyond its two tables: at N = 2,000
    it peaks at 62 MiB (tracemalloc), of which the tables are 61 MiB.
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
    guide = np.empty((n, m), dtype=np.min_scalar_type(n))
    rows = max(1, _BUILD_BLOCK // (m + 1))
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
        low += np.arange(1, c.shape[0] * (m + 1), m + 1)[:, None]
        first = np.bincount(low.ravel(), minlength=c.shape[0] * (m + 1))
        first = first.astype(guide.dtype).reshape(-1, m + 1)
        np.cumsum(first[:, :m], axis=1, dtype=guide.dtype,
                  out=guide[lo:lo + rows])
    log_fitness, _ = log_unit_scale(decomp.fitness)
    return RowSampler(cumulative=_freeze(cumulative), guide=_freeze(guide),
                      log_fitness=_freeze(log_fitness))


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


def _walk(sampler: RowSampler, k: int, count: int, seed: int, cap: int,
          shards: int, dead: np.ndarray | None = None,
          dense: bool = True) -> tuple:
    """Walk ``count`` attempts from ``k`` as :func:`sample_batch` does.

    Returns the attempts' ``return_times`` and ``log_sums``, the number of
    walkers still out after the last step, and the :class:`SampleBatch`
    fields ``dense``, ``shifts``, ``tail`` and ``tail_sums``, in this
    order.

    Once a step has moved its walkers, its uniforms are spent, so their
    buffer takes ``log f~`` of the states left and then the step's weights
    ``exp(S_n - max S_n)``.  While ``dense`` holds and a step's record
    would take at least its sums, these are added per shard with one
    ``np.bincount`` of each live shard's slice of walkers; every later
    step is recorded.  A walker that ``dead`` marks weighs 0 in the sums.
    """
    n = sampler.n
    block = -(-count // shards)
    # Only the first ceil(count / block) shards hold attempts.
    edges = np.minimum(np.arange(0, count + block, block), count)
    rngs = _streams(seed, 0, edges.size - 1)
    rows = len(rngs)
    active = np.arange(count)
    current = np.full(count, k, dtype=np.intp)
    return_times = np.zeros(count, dtype=np.int64)
    log_sums = np.zeros(count)
    u = np.empty(count)
    live = list(range(rows))
    sums, shifts, tail = [], [], []
    table = None
    tail_sums = np.empty(0)

    step = 0
    while active.size and step < cap:
        step += 1
        size = active.size
        # Shard s's active walkers are active[ends[s]:ends[s + 1]]; a shard
        # whose walkers have all stopped never has any again.
        ends = active.searchsorted(edges).tolist()
        live = [s for s in live if ends[s] < ends[s + 1]]
        for s in live:
            rngs[s].random(out=u[ends[s]:ends[s + 1]])
        nxt = _step_states(sampler, current, u[:size])
        w = u[:size]
        log_s = log_sums[active]
        log_s += np.take(sampler.log_fitness, current, out=w)
        log_sums[active] = log_s
        dense = dense and _RECORD_BYTES * size >= _SUM_BYTES * rows * n
        if dense:
            top = log_s.max()
            np.subtract(log_s, top, out=w)
            np.exp(w, out=w)
            if dead is not None:
                w[dead[active]] = 0.0
            row = np.zeros((rows, n))
            for s in live:
                lo, hi = ends[s], ends[s + 1]
                row[s] = np.bincount(nxt[lo:hi], w[lo:hi], minlength=n)
            sums.append(row)
            shifts.append(top)
        elif table is None:
            # The first tail step: the sums are stacked now, while the
            # record is still empty.
            table = np.array(sums).reshape(len(shifts), rows, n)
            sums = None
            if shifts:
                tail_sums = log_s
        # Freed before the filters below take their walker-sized arrays.
        del log_s
        keep = nxt != k
        return_times[active[~keep]] = step
        active = active[keep]
        current = nxt[keep]
        if not dense:
            tail.append((_freeze(keep),
                         _freeze(current.astype(sampler.guide.dtype))))

    if table is None:
        table = np.array(sums).reshape(len(shifts), rows, n)
    return (return_times, log_sums, active.size, table,
            np.array(shifts, dtype=float), tuple(tail), tail_sums)


def sample_batch(sampler: RowSampler, k: int, count: int, seed: int,
                 cap: int, shards: int) -> SampleBatch:
    """Sample ``count`` excursion attempts, split deterministically by shard.

    All shards walk together, each filling its slice of one uniform buffer,
    so the walk lasts as long as the longest excursion, or ``cap`` steps.
    Each step adds ``log f~`` of the state every walker leaves into that
    walker's entry of ``S_p``, so each path's sum is taken in the walk, in
    visit order from zero.  The visits go into per-step sums or a record
    (see :class:`SampleBatch`), whichever takes less, so the batch holds
    about ``min(visits x 3 B, steps x rows x N x 8 B)`` beyond its
    per-attempt arrays.  A truncated walker has been added into the sums,
    so if any is, the summed steps are walked again, on the same stream,
    with the truncated walkers at weight 0.

    Args:
        sampler: tables from :func:`build_sampler`.
        k: base state, 0-based.
        count: number of attempts (>= 1).
        seed: 64-bit batch seed.
        cap: hard per-path length cap.
        shards: number of independent RNG streams; the batch is identical
            for fixed ``(seed, shards, count, cap)`` however it is executed.

    Raises:
        InvalidArgument: ``count``, ``shards`` or ``cap`` below 1, ``k`` not
            a state, or an argument but ``sampler`` not an integer.
        AllTruncated: every attempt hit the cap.
    """
    check_counts(count=count, shards=shards, cap=cap)
    check_base_state(k, sampler.n)
    check_integers(seed=seed)
    k, count, seed, cap, shards = map(operator.index,
                                      (k, count, seed, cap, shards))

    (return_times, log_sums, truncated, dense, shifts, tail,
     tail_sums) = _walk(sampler, k, count, seed, cap, shards)
    if truncated == count:
        raise AllTruncated(count, cap)
    kept = return_times > 0
    if truncated:
        if shifts.size:
            # The dense steps again, on the same stream: the tail's record
            # is the same, and a walk of the same walkers switches at the
            # same step.
            del dense
            dense, shifts = _walk(sampler, k, count, seed, shifts.size,
                                  shards, dead=~kept)[3:5]
        if tail_sums.size:
            # The walkers out at the first tail step return after it or
            # never.
            out = return_times[~kept | (return_times > shifts.size)] == 0
            tail_sums[out] = -np.inf
        log_sums = log_sums[kept]
    block = -(-count // shards)
    shard_path_counts = np.zeros(shards, dtype=np.int64)
    starts = np.arange(0, count, block)
    shard_path_counts[:starts.size] = np.add.reduceat(kept, starts,
                                                      dtype=np.int64)
    return SampleBatch(
        base_state=k,
        sampler=sampler,
        seed=seed,
        cap=cap,
        shards=shards,
        return_times=_freeze(return_times),
        log_sums=_freeze(log_sums),
        truncated_count=truncated,
        shard_path_counts=_freeze(shard_path_counts),
        dense=_freeze(dense),
        shifts=_freeze(shifts),
        tail=tail,
        tail_sums=_freeze(tail_sums),
    )
