"""Shared helpers for the test suite: closed forms, matrix generators, and
scalar reference paths that the vectorized pipeline is checked against."""

from __future__ import annotations

import hashlib
import importlib.util
import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from unittest.mock import patch

import numpy as np

from perronmc.chain_sim import (RowSampler, SampleBatch, _step_states,
                                mix_seed)
from perronmc.cli import main
from perronmc.errors import AllTruncated, PerronMCError
from perronmc.estimator import EstimationConfig, _log_trial
from perronmc.matrix_core import (NonNegativeMatrix, RowDecomposition,
                                  log_unit_scale, validate)

ACCEPTANCE_2X2 = [[1.0, 2.0], [3.0, 4.0]]

# A 22-cycle closed by the smallest float, with a self-loop of weight
# 1e-300 on state 2 that makes it aperiodic: every excursion goes once
# round the cycle, so the dominant eigenvalue is 5e-324 ** (1 / 22), about
# 2.0149e-15, and state 22 holds almost all of the eigenvector.
CYCLE_22 = [[1.0 if j == i + 1 else 0.0 for j in range(22)]
            for i in range(22)]
CYCLE_22[21][0] = 5e-324
CYCLE_22[1][1] = 1e-300

# 99th-percentile chi-square critical values by degrees of freedom.
CHI2_99 = {1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086, 6: 16.812,
           7: 18.475}


def closed_form_2x2() -> tuple[float, np.ndarray]:
    """Dominant eigenpair of [[1, 2], [3, 4]] from the quadratic formula.

    The characteristic polynomial is x**2 - 5x - 2, so the dominant root is
    (5 + sqrt(33)) / 2; the left eigenvector satisfies u2/u1 = (lam - 1)/3.
    """
    lam = (5.0 + np.sqrt(33.0)) / 2.0
    u = np.array([1.0, (lam - 1.0) / 3.0])
    return float(lam), u / u.sum()


def random_primitive_matrix(rng: np.random.Generator, n_max: int = 8,
                            hi: float = 5.0,
                            zero_frac: float = 0.3) -> NonNegativeMatrix:
    """Random primitive matrix with uniform entries and random zeros."""
    while True:
        n = int(rng.integers(2, n_max + 1))
        raw = rng.uniform(0.0, hi, (n, n))
        raw[rng.random((n, n)) < zero_frac] = 0.0
        try:
            return validate(raw)
        except PerronMCError:
            continue


def _bench_workload(name: str, seed: int):
    """The workload ``name`` of ``perfbench/workloads.py``, its matrix and
    the CLI's ``--seed`` at bench seed ``seed``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses looks its module up
    spec.loader.exec_module(workloads)
    workload = workloads.WORKLOADS[name]
    rows, cli_seed = workloads.inputs(workload, seed)
    return workload, validate(rows), cli_seed


def bench_matrix(name: str, seed: int) -> NonNegativeMatrix:
    """The matrix that any workload of ``perfbench/workloads.py`` hands the
    CLI at bench seed ``seed``."""
    return _bench_workload(name, seed)[1]


def bench_inputs(name: str, seed: int
                 ) -> tuple[NonNegativeMatrix, EstimationConfig]:
    """The matrix and the sampling settings that a ``compare`` workload of
    ``perfbench/workloads.py`` hands the CLI at bench seed ``seed``."""
    workload, matrix, cli_seed = _bench_workload(name, seed)
    flags = dict(zip(workload.flags[::2], workload.flags[1::2]))
    return matrix, EstimationConfig(samples=int(flags["--samples"]),
                                    seed=cli_seed,
                                    shards=int(flags["--shards"]))


def collatz_wielandt(entries: np.ndarray,
                     v: np.ndarray) -> tuple[float, float]:
    """The Collatz-Wielandt bracket of a positive row vector ``v``:
    ``min_j (vA)_j / v_j <= rho(A) <= max_j (vA)_j / v_j`` for every
    non-negative ``A`` (Horn & Johnson, *Matrix Analysis*, 2nd ed., 2013,
    section 8.1; Meyer, *Matrix Analysis and Applied Linear Algebra*, 2000,
    section 8.3).  The bracket bounds rho itself, whatever the rest of the
    spectrum, and it narrows to rho as ``v`` nears the left Perron
    vector."""
    ratios = (v @ entries) / v
    return float(ratios.min()), float(ratios.max())


GOLDEN = Path(__file__).resolve().parent / "golden"


def golden_cases() -> list[dict]:
    """The golden corpus: each case a name, a CLI argv whose files lie in
    ``golden/inputs``, an exit code and the sha256 of stdout and stderr."""
    return json.loads((GOLDEN / "cases.json").read_text())


def run_golden(argv: list[str]) -> tuple[int, str, str]:
    """``perronmc ARGV`` in-process from ``golden/inputs``, so messages name
    the files as the argv does: the exit code, stdout and stderr.  Usage
    lines are wrapped at 80 columns whatever the terminal."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN / "inputs")
    try:
        with (patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out),
              redirect_stderr(err)):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error, from argparse
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue()


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def unchecked(rows) -> NonNegativeMatrix:
    """A frozen NonNegativeMatrix that skips :func:`validate`, primitivity
    certificate included, for stage tests on periodic or reducible chains."""
    entries = np.array(rows, dtype=float)
    entries.flags.writeable = False
    return NonNegativeMatrix(n=entries.shape[0], entries=entries)


def scale(matrix: NonNegativeMatrix, c: float) -> NonNegativeMatrix:
    """``c`` times the matrix, certified again by :func:`validate`."""
    return validate(matrix.entries * c)


def random_stochastic_matrix(rng: np.random.Generator, n: int,
                             bits: int = 20) -> NonNegativeMatrix:
    """Random positive stochastic matrix whose rows sum to exactly 1.0.

    Entries are dyadic rationals k / 2**bits, so each is exactly
    representable and any float summation order reproduces 1.0 without
    rounding.  All entries are >= 2**-bits, hence the matrix is primitive.
    """
    denom = 1 << bits
    rows = []
    for _ in range(n):
        counts = rng.multinomial(denom - n, np.full(n, 1.0 / n)) + 1
        rows.append(counts / denom)
    matrix = validate(np.array(rows))
    assert (matrix.entries.sum(axis=1) == 1.0).all()
    return matrix


# ---------------------------------------------------------------------------
# Scalar reference paths


@dataclass(frozen=True)
class Excursion:
    """One first-return path: visits = (X_0, ..., X_{tau-1}), X_tau = base."""

    base_state: int
    visits: np.ndarray
    return_time: int


@dataclass(frozen=True)
class Truncation:
    """Outcome of an attempt that did not return within ``cap`` steps."""

    base_state: int
    cap: int


def inverse_cdf_tables(kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's row-wise cumulative sums and each row's last positive
    state, built from the kernel alone and not from a ``RowSampler``."""
    last_positive = np.array([int(np.flatnonzero(row > 0.0)[-1])
                              for row in kernel])
    return np.cumsum(kernel, axis=1), last_positive


def sample_excursion(kernel: np.ndarray, k: int, rng: np.random.Generator,
                     cap: int) -> Excursion | Truncation:
    """Sample one first-return excursion from state ``k``, one step at a time.

    Each step is a binary search of the kernel's cumulative row, clamped to
    the row's last positive state.  Returns a :class:`Truncation` if the
    chain does not come back to ``k`` within ``cap`` steps; truncation is an
    outcome, not an error.
    """
    n = kernel.shape[0]
    if not 0 <= k < n:
        raise ValueError(f"base state {k} outside 0..{n - 1}")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    cumulative, last_positive = inverse_cdf_tables(kernel)
    visits = [k]
    current = k
    for _ in range(cap):
        u = rng.random()
        nxt = int(np.searchsorted(cumulative[current], u, side="right"))
        current = min(nxt, int(last_positive[current]))
        if current == k:
            arr = np.asarray(visits, dtype=np.int64)
            return Excursion(base_state=k, visits=arr, return_time=len(visits))
        visits.append(current)
    return Truncation(base_state=k, cap=cap)


def step_states_reference(kernel: np.ndarray, current: np.ndarray,
                          u: np.ndarray) -> np.ndarray:
    """Inverse-CDF transition by a full scan of each walker's cumulative row,
    clamped to the row's last positive state."""
    cumulative, last_positive = inverse_cdf_tables(kernel)
    nxt = (cumulative[current] <= u[:, None]).sum(axis=1)
    return np.minimum(nxt, last_positive[current])


def offsets(batch: SampleBatch) -> np.ndarray:
    """Start index of each path inside ``batch.states``."""
    out = np.zeros(batch.lengths.shape[0], dtype=np.int64)
    np.cumsum(batch.lengths[:-1], out=out[1:])
    return out


def path_log_sums(states: np.ndarray, lengths: np.ndarray,
                  log_fitness: np.ndarray) -> np.ndarray:
    """``S_p``: each path's ``log_fitness`` over its visits, summed in
    visit order from zero, one path at a time."""
    parts = np.split(log_fitness[states], np.cumsum(lengths)[:-1])
    return np.array([np.cumsum(part)[-1] for part in parts])


def _walk_block(sampler: RowSampler, k: int, block: int,
                rng: np.random.Generator, cap: int):
    """Run ``block`` first-return attempts at once.

    All still-active walkers advance together each step, consuming one
    uniform per walker in walker order.  Returns (flat int32 visit states,
    int64 per-path lengths, truncated count) with truncated attempts
    removed from the flat arrays.
    """
    active = np.arange(block)
    current = np.full(block, k, dtype=np.intp)
    return_time = np.zeros(block, dtype=np.int64)
    record = []

    step = 0
    while active.size and step < cap:
        step += 1
        u = rng.random(active.size)
        nxt = _step_states(sampler, current, u)
        keep = nxt != k
        return_time[active[~keep]] = step
        active = active[keep]
        current = nxt[keep]
        record.append((keep, current.astype(np.int32)))

    kept = return_time > 0
    lengths = return_time[kept]
    start = np.cumsum(return_time) - return_time
    states = np.empty(int(lengths.sum()), dtype=np.int32)
    states[start[kept]] = k
    walkers = np.arange(block)
    for t, (keep, visited) in enumerate(record, start=1):
        walkers = walkers[keep]
        alive = kept[walkers] if active.size else slice(None)
        states[start[walkers[alive]] + t] = visited[alive]
    return states, lengths, int(active.size)


@dataclass(frozen=True)
class ShardWalk:
    """The batch as the shards walked one at a time give it, in path order:
    the visits, the path lengths and ``S_p`` per path, the truncations and
    the paths per shard."""

    states: np.ndarray
    lengths: np.ndarray
    log_sums: np.ndarray
    truncated_count: int
    shard_path_counts: np.ndarray


def sample_batch_by_shard(sampler: RowSampler, k: int, count: int, seed: int,
                          cap: int, shards: int) -> ShardWalk:
    """The batch walked one shard at a time: shard ``s`` walks its block of
    ``ceil(count / shards)`` attempts alone, on the generator seeded by
    ``mix_seed(seed, s)``, and the shards' results are concatenated."""
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
    return ShardWalk(states=states, lengths=lengths,
                     log_sums=path_log_sums(states, lengths,
                                            sampler.log_fitness),
                     truncated_count=truncated_total,
                     shard_path_counts=shard_path_counts)


def excursions(batch: SampleBatch) -> list[Excursion]:
    """The per-path view of a batch's flat visit arrays."""
    parts = np.split(batch.states, np.cumsum(batch.lengths)[:-1])
    return [
        Excursion(int(visits[0]), visits, int(visits.shape[0]))
        for visits in parts
    ]


@dataclass(frozen=True)
class PathLogWeights:
    """Log weights along one excursion.

    Attributes:
        per_step_log: log w_n for n = 0..tau-1; the first entry is 0.
        return_log: log of the full return weight w_tau.
    """

    per_step_log: np.ndarray
    return_log: float


def path_log_weights(exc: Excursion, fitness: np.ndarray,
                     log_lambda: float) -> PathLogWeights:
    """Per-step and return log weights for a single excursion."""
    log_f = np.log(fitness[exc.visits])
    tau = exc.return_time
    prefix = np.concatenate(([0.0], np.cumsum(log_f)[:-1]))
    per_step = prefix - np.arange(tau) * log_lambda
    return_log = float(log_f.sum() - tau * log_lambda)
    return PathLogWeights(per_step_log=per_step, return_log=return_log)


def return_weight_log(exc: Excursion, fitness: np.ndarray,
                      log_lambda: float) -> float:
    """log of the return weight lam**(-tau) * prod_{t<tau} f(X_t)."""
    return float(np.log(fitness[exc.visits]).sum() - exc.return_time * log_lambda)


def step_weights_by_path(batch: SampleBatch, fitness: np.ndarray,
                         lam: float) -> np.ndarray:
    """Per-visit weights ``w_n = exp(S_n - n t)``, flat, path by path.

    ``S_n`` is the path's running sum of ``log f~`` from zero, as the walk
    takes it, and ``t = log lam~``, with ``f`` and ``lam`` scaled by the
    power of two of :func:`perronmc.matrix_core.log_unit_scale`, as the
    walk's ``log f~`` is.
    """
    log_scaled, exponent = log_unit_scale(fitness)
    t = np.log(np.ldexp(lam, -exponent))
    weights = []
    for exc in excursions(batch):
        sums = np.concatenate(([0.0], np.cumsum(log_scaled[exc.visits])[:-1]))
        weights.append(np.exp(sums - np.arange(exc.return_time) * t))
    return np.concatenate(weights)


def shard_tallies(batch: SampleBatch, fitness: np.ndarray,
                  lam: float) -> np.ndarray:
    """Per-state sums of the weights at ``lam``, one row per shard that
    holds paths, from each path's own weights (:func:`step_weights_by_path`)
    added in the order the tally adds a recorded step's: for n = 0, 1, ...,
    one ``np.bincount`` of the n-th visits of the paths still out, in
    attempt order, added into the table."""
    n = fitness.shape[0]
    counts = batch.shard_path_counts[batch.shard_path_counts > 0]
    lengths = batch.lengths
    weights = step_weights_by_path(batch, fitness, lam)
    row = np.repeat(np.repeat(np.arange(counts.shape[0]), counts), lengths)
    step = np.arange(weights.shape[0]) - np.repeat(offsets(batch), lengths)
    order = np.argsort(step, kind="stable")
    bins = (row * n + batch.states)[order]
    weights = weights[order]
    table = np.zeros((counts.shape[0], n))
    flat = table.reshape(-1)
    ends = np.cumsum(np.bincount(step)).tolist()
    for lo, hi in zip([0] + ends[:-1], ends):
        flat += np.bincount(bins[lo:hi], weights[lo:hi],
                            minlength=flat.shape[0])
    return table


def exact_tally(batch: SampleBatch, fitness: np.ndarray,
                lam: float) -> np.ndarray:
    """Per-state sums of the path-by-path weights at ``lam``
    (:func:`step_weights_by_path`), one row per shard that holds paths,
    each summed exactly by ``math.fsum`` and rounded once."""
    n = fitness.shape[0]
    counts = batch.shard_path_counts[batch.shard_path_counts > 0]
    weights = step_weights_by_path(batch, fitness, lam)
    row = np.repeat(np.repeat(np.arange(counts.shape[0]), counts),
                    batch.lengths)
    bins = row * n + batch.states
    order = np.argsort(bins, kind="stable")
    ends = np.cumsum(np.bincount(bins, minlength=counts.shape[0] * n))
    sums = [math.fsum(part) for part in np.split(weights[order], ends[:-1])]
    return np.array(sums).reshape(counts.shape[0], n)


@dataclass(frozen=True)
class VisitTally:
    """Accumulated visit weights over a batch.

    Attributes:
        numerators: per-state sums of w_n over all steps of all paths.
        denominator: total weight, defined as the sum of the numerators
            (every step credits exactly one state).
    """

    numerators: np.ndarray
    denominator: float


def visit_tally(batch: SampleBatch, fitness: np.ndarray,
                lam: float) -> VisitTally:
    """Per-state visit weights of the batch at ``lam``, summed as
    :func:`perronmc.estimator.estimate_u` sums them: the column sums of the
    batch's own tally table."""
    exponent = log_unit_scale(fitness)[1]
    numerators = batch.tally(_log_trial(lam, exponent)).sum(axis=0)
    return VisitTally(numerators=numerators, denominator=float(numerators.sum()))


def estimate_uk(batch: SampleBatch, fitness: np.ndarray, lam: float) -> float:
    """Base-state coordinate as 1 / (mean total path weight).

    Equals ``estimate_u(...)[k]`` bitwise: the tally numerator at the base
    state is exactly the path count, so both reduce to the same division.
    """
    tally = visit_tally(batch, fitness, lam)
    return float(batch.path_count / tally.denominator)


def solve_lambda_by_bisection(sums, tol: float) -> float:
    """The lam solve by plain bisection of ``lam~`` on the row-sum bracket
    ``[sums.lo, sums.hi]`` of a :class:`perronmc.estimator._PathSums`.

    Stops when ``log1p(-tol) <= log g <= log1p(tol)`` at the midpoint, or
    when the midpoint is no longer strictly inside the bracket: at most
    1,074 evaluations of log g, on the widest bracket ``[5e-324, 2)``.
    """
    band_lo = float(np.log1p(-tol))
    band_hi = float(np.log1p(tol))
    lo, hi = sums.lo, sums.hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return sums.unscale(mid)
        log_g, _ = sums.log_g(np.log(mid))
        if band_lo <= log_g <= band_hi:
            return sums.unscale(mid)
        if log_g > 0.0:
            lo = mid
        else:
            hi = mid


def lemma_terms_reference(entries: np.ndarray, k: int, lam: float,
                          count: int) -> np.ndarray:
    """The first ``count`` terms of the return-weight series by the
    recursion on B, the matrix without row and column ``k``.

    Term 0 is ``A[k, k] / lam``; term n >= 1 is ``lam**-(n + 1) *
    A[k, others] @ B**(n - 1) @ A[others, k]``, found by pushing a row
    vector through B / lam one step per term.
    """
    others = np.arange(entries.shape[0]) != k
    b = entries[np.ix_(others, others)]
    col = entries[others, k]
    terms = [entries[k, k] / lam]
    v = entries[k, others] / lam**2
    for _ in range(1, count):
        terms.append(float(v @ col))
        v = (v @ b) / lam
    return np.asarray(terms)


def children_by_type(counts: np.ndarray, decomp: RowDecomposition,
                     rng: np.random.Generator,
                     law: str = "poisson") -> np.ndarray:
    """One generation drawn type by type: the c type-i parents have
    Poisson(c * f(i)) children under the Poisson law (exactly c * f(i)
    under the deterministic one), split across types by one multinomial
    draw with probabilities M(i, .)."""
    child = np.zeros(decomp.n, dtype=np.int64)
    for i in range(decomp.n):
        parents = int(counts[i])
        if parents == 0:
            continue
        mean = float(decomp.fitness[i])
        if law == "poisson":
            total = int(rng.poisson(parents * mean))
        else:
            total = parents * round(mean)
        if total:
            child += rng.multinomial(total, decomp.kernel[i])
    return child
