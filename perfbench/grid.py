"""Baseline grid: per-layer split and peak allocation of ``compare`` by N.

    python3 perfbench/grid.py > grid.json

Not gated and not part of the timed benchmark; it regenerates the baseline
table of the roadmap from the same spans as ``run.py --trace 1``.  Each
point is a uniform(0.5, 2) matrix of size N drawn with seed 0, base state 1
and Monte Carlo seed 0.  One traced operation gives the times; a second
under ``tracemalloc`` gives the allocation peaks.  Prints a markdown table,
then one JSON object with every point and the environment.
"""

from __future__ import annotations

import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from run import environment  # noqa: E402
from traced import (Recorder, layer_metrics, peak_alloc_metrics,  # noqa: E402
                    traced_operation)
from workloads import make_matrix  # noqa: E402

GRID = ((2, 100_000), (10, 100_000), (100, 100_000), (400, 20_000))
COLUMNS = (
    ("operation", "operation.s"),
    ("sampling", "chain_sim.sample_batch.s"),
    ("λ bisection", "estimator.estimate_lambda.s"),
    ("u tally", "estimator.estimate_u.s"),
    ("g_hat", "estimator.g_hat.s"),
    ("dispersion", "estimator.shard_dispersion.s"),
    ("oracle", "oracle.power_iteration.s"),
)


def grid_point(n: int, samples: int, directory: Path) -> dict:
    path = directory / f"uniform-n{n}.json"
    matrix = make_matrix("uniform", n, np.random.default_rng(0))
    path.write_text(json.dumps({"n": n, "rows": matrix.tolist()}))
    argv = ["compare", str(path), "--samples", str(samples), "--seed", "0"]

    rec = Recorder()
    _, counts = traced_operation(argv, rec)
    point = {"n": n, "samples": samples,
             "operation.s": rec.spans[0][2] - rec.spans[0][1],
             **layer_metrics(rec, counts)}
    rec = Recorder()
    tracemalloc.start()
    try:
        traced_operation(argv, rec)
    finally:
        tracemalloc.stop()
    point.update(peak_alloc_metrics(rec))
    return point


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        points = [grid_point(n, samples, Path(tmp)) for n, samples in GRID]

    print("| N | samples | " + " | ".join(title for title, _ in COLUMNS)
          + " | dense counts built | peak alloc |")
    print("|---" * (len(COLUMNS) + 4) + "|")
    for p in points:
        times = " | ".join(f"{p[key]:.3g} s" for _, key in COLUMNS)
        peak = max(p["chain_sim.peak_alloc_mb"], p["estimator.peak_alloc_mb"])
        print(f"| {p['n']} | {p['samples']} | {times} | "
              f"{p['estimator.counts_bytes.computed'] / 2**20:.1f} MB | "
              f"{peak:.1f} MB |")
    print(json.dumps({"env": environment(), "points": points}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
