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
(Chen & Asau, 1974) finds that count in O(1) expected time, not by reading
the whole row: bucket ``b = int(u * N)`` stores how many entries of
``C[i]`` are at or below ``(b - 1) / N``, a point every ``u`` in the
bucket lies above, so the count starts there and advances over the few
entries left in the bucket.  Rows are non-decreasing, so the search stops
at exactly the count a full scan gives: the table changes the cost of a
step, never its result, and the random stream is the one a full scan
draws.

Reproducibility contract: :func:`sample_batch` is a pure function of
``(kernel, k, count, seed, cap, shards)``.  Attempts are assigned to shards
in contiguous blocks of ``ceil(count / shards)``; shard ``s`` draws from a
PCG64 generator whose seed is ``mix_seed(seed, s)``, the SplitMix64 mix
documented below, so the result does not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AllTruncated, InvalidArgument
from .matrix_core import RowDecomposition

__all__ = [
    "RowSampler",
    "SampleBatch",
    "mix_seed",
    "build_sampler",
    "sample_batch",
]

_MASK64 = (1 << 64) - 1
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


@dataclass(frozen=True)
class RowSampler:
    """Inverse-CDF sampling tables for one transition kernel.

    Attributes:
        cumulative: (N, N) row-wise cumulative probabilities before each
            row's last positive state, and the sentinel 2.0 from that state
            on; each row is non-decreasing.
        guide: (N, N) guide table; ``guide[i, b]`` is the number of entries
            of ``cumulative[i]`` at or below ``(b - 1) / N``.  A uniform
            ``u`` with ``int(u * N) == b`` is at least ``b / N`` up to
            rounding, far above that threshold, so every entry counted is
            ``<= u`` and the exact count is ``guide[i, b]`` plus the entries
            in ``((b - 1) / N, u]``.  That interval is shorter than
            ``2 / N``, so a uniform ``u`` finds fewer than two of the row's
            N entries in it on average.
    """

    cumulative: np.ndarray
    guide: np.ndarray

    @property
    def n(self) -> int:
        return self.cumulative.shape[0]


@dataclass(frozen=True)
class SampleBatch:
    """A deterministic batch of first-return excursions from one base state.

    The visit sequences are stored flat (``states``) with one length per
    kept excursion (``lengths``), ordered by attempt; each starts at the base
    state.  Truncated attempts are excluded from the arrays but counted.
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
    positive state on, and their guide table.

    The guide costs one binary search per row and bucket, O(N^2 log N) in
    all, done once per kernel.
    """
    cumulative = np.cumsum(decomp.kernel, axis=1)
    n = cumulative.shape[1]
    # Every row has a positive entry because the fitness is a positive sum.
    last_positive = n - 1 - np.argmax(decomp.kernel[:, ::-1] > 0.0, axis=1)
    cumulative[np.arange(n) >= last_positive[:, None]] = 2.0
    # One bucket low, so that rounding in u * N can never put a uniform
    # below its bucket's threshold.  Every threshold is below 1 < 2.0, so
    # no guide entry passes the sentinel.
    thresholds = np.arange(-1, n - 1) / n
    guide = np.stack([np.searchsorted(row, thresholds, side="right")
                      for row in cumulative])
    cumulative.flags.writeable = False
    guide.flags.writeable = False
    return RowSampler(cumulative=cumulative, guide=guide)


def _step_states(sampler: RowSampler, current: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Next state of each walker: ``#{j : C[i, j] <= u}``.

    Each count starts at the walker's guide entry and advances while the
    next cumulative entry is still ``<= u``; each pass touches only the
    walkers still advancing, and the row's sentinel stops every walker
    inside its row.  Cost is O(1) expected per walker.  ``u * N`` rounds
    below ``N`` for every ``u < 1``, so the bucket is always in range.
    """
    n = sampler.n
    cum = sampler.cumulative.reshape(-1)
    row = current * n
    pos = row + sampler.guide.reshape(-1)[row + (u * n).astype(np.intp)]
    todo = np.flatnonzero(cum[pos] <= u)
    while todo.size:
        p = pos[todo] + 1
        pos[todo] = p
        todo = todo[cum[p] <= u[todo]]
    return pos - row


def _walk_block(sampler: RowSampler, k: int, block: int,
                rng: np.random.Generator, cap: int):
    """Run ``block`` first-return attempts at once.

    All still-active walkers advance together each step, consuming one
    uniform per walker in walker order; this is deterministic for a fixed
    generator state.  Returns (flat visit states, per-path lengths,
    truncated count) with truncated attempts removed from the flat arrays.
    """
    active = np.arange(block, dtype=np.int64)
    current = np.full(block, k, dtype=np.int64)
    return_time = np.zeros(block, dtype=np.int64)
    record = [(active, current)]

    step = 0
    while active.size and step < cap:
        step += 1
        u = rng.random(active.size)
        nxt = _step_states(sampler, current, u)
        returned = nxt == k
        return_time[active[returned]] = step
        keep = ~returned
        active = active[keep]
        current = nxt[keep]
        if active.size:
            record.append((active, current))

    truncated = active
    kept = return_time > 0
    lengths = return_time[kept]
    # Walker w's path starts after the paths of the kept walkers before it;
    # truncated walkers have return time 0, so they take no room.
    start = np.cumsum(return_time) - return_time
    states = np.empty(int(lengths.sum()), dtype=np.int64)
    for t, (walkers, visited) in enumerate(record):
        if truncated.size:
            alive = kept[walkers]
            walkers, visited = walkers[alive], visited[alive]
        states[start[walkers] + t] = visited
    return states, lengths, int(truncated.size)


def sample_batch(sampler: RowSampler, k: int, count: int, seed: int,
                 cap: int, shards: int) -> SampleBatch:
    """Sample ``count`` excursion attempts, split deterministically by shard.

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
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    if shards < 1:
        raise InvalidArgument("shards must be >= 1")
    if cap < 1:
        raise InvalidArgument("cap must be >= 1")
    if not 0 <= k < sampler.n:
        raise InvalidArgument(f"base state {k + 1} outside 1..{sampler.n}")

    block = -(-count // shards)
    all_states = []
    all_lengths = []
    shard_path_counts = np.zeros(shards, dtype=np.int64)
    truncated_total = 0
    for s in range(shards):
        size = min(block, count - s * block)
        if size <= 0:
            break
        rng = np.random.default_rng(mix_seed(seed, s))
        states, lengths, truncated = _walk_block(sampler, k, size, rng, cap)
        all_states.append(states)
        all_lengths.append(lengths)
        shard_path_counts[s] = lengths.shape[0]
        truncated_total += truncated

    states = np.concatenate(all_states)
    lengths = np.concatenate(all_lengths)
    if lengths.size == 0:
        raise AllTruncated(count, cap)
    states.flags.writeable = False
    lengths.flags.writeable = False
    shard_path_counts.flags.writeable = False
    return SampleBatch(
        states=states,
        lengths=lengths,
        truncated_count=truncated_total,
        shard_path_counts=shard_path_counts,
    )
