"""perronmc benchmark: closed-loop CLI workloads and a per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``perronmc`` is imported from
``src/``.  The workload (see ``workloads.py``) is one CLI operation,
``perronmc.cli.main([...])`` called in-process with stdout captured, on a
matrix file generated from ``--seed``.  A single caller runs the next
operation only after the previous one returns (a closed loop with one
client), for ``S`` seconds, and gates every report.  BLAS threads stay at
the library default.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref``: median wall time of one operation, in units of a fixed
  pure-Python reference loop timed right before and after it;
* ``wall_ref.tail``: the same ratio at the highest percentile with at least
  ten operations beyond it;
* ``peak_rss_mb``: peak resident memory of this fresh process;
* ``setup_s``: median time to import ``perronmc.cli`` in a fresh
  interpreter, which every CLI call pays, over interpreters started
  between operations throughout the run.

Why operation time is compared in reference units: on a shared host the
neighbours' load slows this CPU by up to 2x, in spells that last from
seconds to minutes.  Over ten runs the median wall time of ``gw-n10`` then
spread by a third of its value, more than any useful bound, while the
ratio to the reference loop, which those spells slow alike, spread by under
a tenth.  The wall times themselves, ``wall_s`` and ``wall_s.tail`` with
their percentile and sample count, are on the line before the result.

``--trace 1`` alternates untraced CLI operations with traced reproductions
(``traced.py``) and reports the per-layer metrics: medians over the traced
operations, allocation peaks from one extra pass under ``tracemalloc``, and
``trace.overhead_s``, traced minus untraced median.  The spans of the last
traced operation are written to ``.perfbench_out/``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment and details.
``failed / attempted`` is the failed fraction: an operation fails on a
non-zero exit, a failed gate, or a report that differs from the run's first.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

MIN_OPS = 11          # the tail percentile needs ten operations beyond it
MIN_TRACED = 3        # traced operations per --trace 1 run, at least
DEADLINE_S = 150      # stop adding operations after this, whatever --seconds
PROBE_EVERY = 3       # one set-up probe per this many operations
REFERENCE_ITERATIONS = 400_000  # about 35 ms on a 2-vCPU x86-64 VM

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import perronmc.cli; "
                "print(time.perf_counter() - t)")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "perronmc" / "__init__.py").is_file():
        print(f"error: no perronmc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Gate, write_inputs

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"pick from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    gate = Gate(workload)
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        cli_argv = write_inputs(workload, args.seed, Path(tmp))
        if args.trace:
            metrics, details = traced_run(workload, cli_argv, args, gate)
        else:
            metrics, details = timed_run(cli_argv, args.seconds, gate)

    details.update(workload=workload.name, seed=args.seed, trace=args.trace,
                   env=environment(), failed_frac=gate.failed / gate.attempted,
                   problems=gate.problems)
    print(json.dumps(details))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


def timed_run(cli_argv, seconds, gate):
    """End-to-end metrics of the closed loop, tracing off."""
    from workloads import run_cli

    gate.record(*run_cli(cli_argv))  # first report; fills caches, untimed
    times, refs, ratios, setup = [], [reference_loop()], [], []
    t0 = perf_counter()
    while ((perf_counter() - t0 < seconds or len(times) < MIN_OPS)
           and perf_counter() - t0 < DEADLINE_S):
        start = perf_counter()
        result = run_cli(cli_argv)
        times.append(perf_counter() - start)
        refs.append(reference_loop())
        ratios.append(times[-1] / ((refs[-2] + refs[-1]) / 2))
        gate.record(*result)
        if len(times) % PROBE_EVERY == 1:  # probes meet the load the operations meet
            setup.append(probe_import())

    tail, percentile = tail_of(times)
    ratio_tail, _ = tail_of(ratios)
    metrics = {
        "wall_ref": _metric(statistics.median(ratios), "ref"),
        "wall_ref.tail": _metric(ratio_tail, "ref"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": _metric(statistics.median(setup), "s"),
    }
    details = {"wall_s": statistics.median(times), "wall_s.tail": tail,
               "tail_percentile": percentile, "samples": len(times),
               "reference_s": statistics.median(refs),
               "wall_s.samples": times, "setup_s.samples": setup}
    return metrics, details


def traced_run(workload, cli_argv, args, gate):
    """Per-layer metrics from traced reproductions of the operation."""
    from traced import (EXACT_COUNTS, LAYER_METRICS, Recorder,
                        layer_metrics, peak_alloc_metrics, traced_operation)
    from workloads import run_cli

    gate.record(*run_cli(cli_argv))
    alloc = {"chain_sim.peak_alloc_mb": 0.0, "estimator.peak_alloc_mb": 0.0}
    if workload.subcommand == "compare":
        rec = Recorder()
        tracemalloc.start()
        try:
            text, _ = traced_operation(cli_argv, rec)
        finally:
            tracemalloc.stop()
        gate.record_traced(text, [])
        alloc = peak_alloc_metrics(rec)

    untraced, traced, layers = [], [], []
    t0 = perf_counter()
    while ((perf_counter() - t0 < args.seconds or len(layers) < MIN_TRACED)
           and perf_counter() - t0 < DEADLINE_S):
        start = perf_counter()
        result = run_cli(cli_argv)
        untraced.append(perf_counter() - start)
        gate.record(*result)

        rec = Recorder()
        start = perf_counter()
        text, counts = traced_operation(cli_argv, rec)
        traced.append(perf_counter() - start)
        layers.append(layer_metrics(rec, counts))
        gate.record_traced(text, [
            f"{name} changed from {layers[0][name]} to {layers[-1][name]}"
            for name in EXACT_COUNTS if layers[-1][name] != layers[0][name]])

    values = {name: statistics.median(m[name] for m in layers)
              for name in layers[0]}
    values.update(alloc)
    values["trace.overhead_s"] = (statistics.median(traced)
                                  - statistics.median(untraced))
    metrics = {name: _metric(values[name], unit)
               for name, unit, _ in LAYER_METRICS}

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({"workload": workload.name,
                                      "seed": args.seed,
                                      "spans": rec.as_json()}))
    details = {"traced_ops": len(layers), "spans": str(spans_path.relative_to(ROOT))}
    return metrics, details


def tail_of(times):
    """(value, percentile) of the highest percentile with ten values beyond.

    With ten or fewer values no percentile qualifies and the maximum is
    returned.
    """
    ordered = sorted(times)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes: the CPU's current speed."""
    start = perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return perf_counter() - start


def probe_import() -> float:
    """Seconds a fresh interpreter takes to import ``perronmc.cli``."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


def environment() -> dict:
    """What the figures depend on besides the code."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
    }


def _blas_threads(np) -> int | None:
    """Threads the OpenBLAS that numpy loaded will use; None if not found."""
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so"):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _getconf(name: str) -> int | None:
    try:
        done = subprocess.run(["getconf", name], capture_output=True,
                              text=True, timeout=10)
        return int(done.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return None


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    raise SystemExit(main())
