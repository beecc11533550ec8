"""Outside-in traced reproduction of one CLI operation, and its layer metrics.

The CLI's pipeline is rebuilt here from each module's public functions,
called in the CLI's order, and every call is timed as a span
``(name, start, end, parent)`` held in memory.  The rebuilt report must
equal the CLI's stdout byte for byte; if it does not, the spans describe
some other computation and the traced run is invalid.

``compare`` runs parse_matrix -> check_primitive -> decompose ->
build_sampler -> sample_batch -> estimate_lambda -> estimate_u -> g_hat ->
shard_dispersion -> power_iteration -> quasispecies_residual.  ``gw-sim``
rebuilds ``conditioned_proportions`` and ``run_tree``'s loop from
check_primitive, decompose and step_generation, seeding tree ``t`` with
``mix_seed(seed, t)``.
"""

from __future__ import annotations

import json
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from perronmc import chain_sim, cli, estimator, gw_app, matrix_core, oracle
from perronmc.errors import NoSurvivors, Subcritical, TruncationBiasGuard

# (name, unit, better) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("chain_sim.sample_batch.s", "s", "lower"),
    ("chain_sim.visits_per_s", "visits/s", "higher"),
    ("chain_sim.cdf_bytes.computed", "bytes", "lower"),
    ("chain_sim.peak_alloc_mb", "MB", "lower"),
    ("chain_sim.build_sampler.s", "s", "lower"),
    ("chain_sim.visits", "count", "lower"),
    ("chain_sim.mean_tau", "steps", "lower"),
    ("chain_sim.kept_frac", "ratio", "higher"),
    ("estimator.estimate_lambda.s", "s", "lower"),
    ("estimator.g_hat.s", "s", "lower"),
    ("estimator.estimate_u.s", "s", "lower"),
    ("estimator.shard_dispersion.s", "s", "lower"),
    ("estimator.counts_bytes.computed", "bytes", "lower"),
    ("estimator.peak_alloc_mb", "MB", "lower"),
    ("gw_app.step_generation.s", "s", "lower"),
    ("gw_app.tree_setup.s", "s", "lower"),
    ("gw_app.generations", "count", "lower"),
    ("gw_app.trees_per_s", "trees/s", "higher"),
    ("gw_app.survivor_frac", "ratio", "higher"),
    ("oracle.power_iteration.s", "s", "lower"),
    ("oracle.power_iterations", "count", "lower"),
    ("oracle.quasispecies_residual.s", "s", "lower"),
    ("matrix_core.check_primitive.s", "s", "lower"),
    ("matrix_core.decompose.s", "s", "lower"),
    ("cli.parse_matrix.s", "s", "lower"),
    ("cli.self.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Counts that must repeat exactly for one input; a change marks a bug.
EXACT_COUNTS = ("chain_sim.visits", "chain_sim.cdf_bytes.computed",
                "estimator.counts_bytes.computed", "oracle.power_iterations",
                "gw_app.generations")

# estimate_lambda and g_hat each build the dense (paths, N) counts matrix.
DENSE_COUNT_BUILDS = 2
FLOAT_BYTES = 8


class Recorder:
    """Spans of one traced operation, kept in memory.

    While ``tracemalloc`` is tracing, :meth:`call` also records for each
    name the largest allocation peak above the memory live when it began.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.peak_alloc: dict[str, int] = {}
        self._open: list[int] = []

    def open(self, name: str) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([name, perf_counter(), None, parent])

    def close(self) -> None:
        self.spans[self._open.pop()][2] = perf_counter()

    @contextmanager
    def span(self, name: str):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        tracing = tracemalloc.is_tracing()
        if tracing:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()
            if tracing:
                peak = tracemalloc.get_traced_memory()[1] - live
                self.peak_alloc[name] = max(peak, self.peak_alloc.get(name, 0))

    def as_json(self) -> list[dict]:
        """Spans with times relative to the first span's start."""
        t0 = self.spans[0][1]
        return [{"name": name, "start": start - t0, "end": end - t0,
                 "parent": parent}
                for name, start, end, parent in self.spans]


def traced_operation(argv: list[str], rec: Recorder) -> tuple[str, dict]:
    """Rebuild the CLI operation ``argv`` under ``rec``.

    Returns the report exactly as the CLI would print it, and the counts
    seen along the way.
    """
    with rec.span("cli.main"):
        cfg = cli._config_from_args(cli._build_parser().parse_args(argv))
        matrix = rec.call("cli.parse_matrix", cli.parse_matrix, cfg.matrix_path)
        if cfg.subcommand == "compare":
            payload, counts = _compare(cfg, matrix, rec)
        elif cfg.subcommand == "gw-sim":
            payload, counts = _gw_sim(cfg, matrix, rec)
        else:
            raise ValueError(f"no traced reproduction of {cfg.subcommand!r}")
        payload["config"] = cli._config_dict(cfg)
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    counts["n"] = matrix.n
    return text, counts


def _compare(cfg, matrix, rec: Recorder) -> tuple[dict, dict]:
    rec.call("matrix_core.check_primitive", matrix_core.check_primitive, matrix)
    decomp = rec.call("matrix_core.decompose", matrix_core.decompose, matrix)
    sampler = rec.call("chain_sim.build_sampler", chain_sim.build_sampler, decomp)
    batch = rec.call("chain_sim.sample_batch", chain_sim.sample_batch, sampler,
                     cfg.base_state - 1, cfg.samples, cfg.seed, cfg.cap,
                     cfg.shards)
    if batch.truncated_count > estimator.TRUNCATION_BIAS_LIMIT * cfg.samples:
        raise TruncationBiasGuard(batch.truncated_count, cfg.samples,
                                  estimator.TRUNCATION_BIAS_LIMIT)
    f = decomp.fitness
    lam = rec.call("estimator.estimate_lambda", estimator.estimate_lambda,
                   batch, f, cfg.tol)
    u_hat = rec.call("estimator.estimate_u", estimator.estimate_u, batch, f, lam)
    g = rec.call("estimator.g_hat", estimator.g_hat, batch, f, lam)
    dispersion = rec.call("estimator.shard_dispersion",
                          estimator.shard_dispersion, batch, f, lam)
    pair = rec.call("oracle.power_iteration", oracle.power_iteration, matrix)
    residual = rec.call("oracle.quasispecies_residual",
                        oracle.quasispecies_residual, matrix, pair.vector)
    payload = {
        "lambda_hat": lam,
        "u_hat": u_hat.tolist(),
        "base_state": cfg.base_state,
        "samples": cfg.samples,
        "truncated": batch.truncated_count,
        "g_residual": abs(g - 1.0),
        "dispersion": None if dispersion is None else dispersion.tolist(),
        "lambda": pair.eigenvalue,
        "u": pair.vector.tolist(),
        "power_residual": pair.residual,
        "qs_max_abs": residual.max_abs,
        "mean_fitness": residual.mean_fitness,
        "l1_error": float(np.abs(u_hat - pair.vector).sum()),
        "lambda_rel_error": float(abs(lam - pair.eigenvalue) / pair.eigenvalue),
    }
    counts = {
        "visits": int(batch.states.shape[0]),
        "paths": batch.path_count,
        "attempts": batch.attempted,
        "mean_tau": float(batch.lengths.mean()),
        "power_iterations": pair.iterations,
    }
    return payload, counts


def _gw_sim(cfg, matrix, rec: Recorder) -> tuple[dict, dict]:
    pair = rec.call("oracle.power_iteration", oracle.power_iteration, matrix)
    # conditioned_proportions, averaged mode, as the CLI calls it.
    rec.call("matrix_core.check_primitive", matrix_core.check_primitive, matrix)
    inner = rec.call("oracle.power_iteration", oracle.power_iteration, matrix)
    if inner.eigenvalue <= 1.0:
        raise Subcritical(inner.eigenvalue)
    n = matrix.n
    start = gw_app.Population(counts=np.ones(n, dtype=np.int64), generation=0)
    summed = np.zeros(n)
    survivors = 0
    generations = 0
    with rec.span("gw_app.trees"):
        for t in range(cfg.trials):
            # run_tree
            with rec.span("gw_app.tree_setup"):
                rec.call("matrix_core.check_primitive",
                         matrix_core.check_primitive, matrix)
                decomp = rec.call("matrix_core.decompose",
                                  matrix_core.decompose, matrix)
            rng = np.random.default_rng(chain_sim.mix_seed(cfg.seed, t))
            pop = start
            for _ in range(cfg.horizon):
                if pop.total == 0:
                    break
                pop = rec.call("gw_app.step_generation", gw_app.step_generation,
                               pop, decomp, rng, law=cfg.offspring_law)
                generations += 1
            total = pop.total
            if total > 0:
                survivors += 1
                summed += np.asarray(pop.counts) / total
    if survivors == 0:
        raise NoSurvivors(cfg.trials, cfg.horizon)
    proportions = summed / survivors
    payload = {
        "proportions": proportions.tolist(),
        "survivors": survivors,
        "lambda": pair.eigenvalue,
        "u": pair.vector.tolist(),
        "l1_to_oracle": float(np.abs(proportions - pair.vector).sum()),
    }
    counts = {
        "trials": cfg.trials,
        "survivors": survivors,
        "generations": generations,
        "power_iterations": pair.iterations + inner.iterations,
    }
    return payload, counts


def layer_metrics(rec: Recorder, counts: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation.

    Times are summed over every span of a name.  ``cli.self.s`` is the
    operation's span minus the spans directly under it.  Layers that the
    operation never reaches read 0.  The allocation peaks and
    ``trace.overhead_s`` come from other runs and are not set here.
    """
    busy = defaultdict(float)
    under_root = 0.0
    for name, start, end, parent in rec.spans:
        busy[name] += end - start
        if parent == 0:
            under_root += end - start
    root = rec.spans[0]
    n = counts["n"]
    visits = counts.get("visits", 0)
    paths = counts.get("paths", 0)
    trials = counts.get("trials", 0)
    sample_s = busy["chain_sim.sample_batch"]
    trees_s = busy["gw_app.trees"]
    return {
        "chain_sim.sample_batch.s": sample_s,
        "chain_sim.visits_per_s": visits / sample_s if sample_s else 0.0,
        "chain_sim.cdf_bytes.computed": visits * n * FLOAT_BYTES,
        "chain_sim.build_sampler.s": busy["chain_sim.build_sampler"],
        "chain_sim.visits": visits,
        "chain_sim.mean_tau": counts.get("mean_tau", 0.0),
        "chain_sim.kept_frac": paths / counts["attempts"] if paths else 0.0,
        "estimator.estimate_lambda.s": busy["estimator.estimate_lambda"],
        "estimator.g_hat.s": busy["estimator.g_hat"],
        "estimator.estimate_u.s": busy["estimator.estimate_u"],
        "estimator.shard_dispersion.s": busy["estimator.shard_dispersion"],
        "estimator.counts_bytes.computed":
            DENSE_COUNT_BUILDS * paths * n * FLOAT_BYTES,
        "gw_app.step_generation.s": busy["gw_app.step_generation"],
        "gw_app.tree_setup.s": busy["gw_app.tree_setup"],
        "gw_app.generations": counts.get("generations", 0),
        "gw_app.trees_per_s": trials / trees_s if trees_s else 0.0,
        "gw_app.survivor_frac": counts["survivors"] / trials if trials else 0.0,
        "oracle.power_iteration.s": busy["oracle.power_iteration"],
        "oracle.power_iterations": counts["power_iterations"],
        "oracle.quasispecies_residual.s": busy["oracle.quasispecies_residual"],
        "matrix_core.check_primitive.s": busy["matrix_core.check_primitive"],
        "matrix_core.decompose.s": busy["matrix_core.decompose"],
        "cli.parse_matrix.s": busy["cli.parse_matrix"],
        "cli.self.s": (root[2] - root[1]) - under_root,
    }


def peak_alloc_metrics(rec: Recorder) -> dict[str, float]:
    """Largest allocation peak of any call into each module, in MB."""
    def peak(module: str) -> float:
        return max((b for name, b in rec.peak_alloc.items()
                    if name.startswith(module + ".")), default=0) / 2**20
    return {"chain_sim.peak_alloc_mb": peak("chain_sim"),
            "estimator.peak_alloc_mb": peak("estimator")}
