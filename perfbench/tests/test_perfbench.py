"""Tests of the benchmark itself: inputs, gates, and the traced reproduction.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from run import tail_of
from traced import (EXACT_COUNTS, LAYER_METRICS, Recorder, layer_metrics,
                    traced_operation)
from workloads import WORKLOADS, Gate, Workload, check, inputs, run_cli, write_inputs

BENCH = Path(__file__).resolve().parent.parent
TINY_COMPARE = Workload("tiny-compare", "compare", 3, "uniform",
                        ("--samples", "2000", "--shards", "2"),
                        {"lambda_rel_error": 0.05, "l1_error": 0.2})
TINY_GW = Workload("tiny-gw", "gw-sim", 3, "lambda3",
                   ("--trials", "40", "--horizon", "4"),
                   {"l1_to_oracle": 0.5})


def passing_report(workload: Workload, tmp_path: Path) -> str:
    code, out, err = run_cli(write_inputs(workload, 0, tmp_path))
    assert code == 0, err
    assert check(workload, code, out) == []
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_a_pure_function_of_the_seed(name, tmp_path):
    workload = WORKLOADS[name]
    matrix, cli_seed = inputs(workload, 7)
    again, again_seed = inputs(workload, 7)
    other, _ = inputs(workload, 8)
    assert np.array_equal(matrix, again) and cli_seed == again_seed
    assert not np.array_equal(matrix, other)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    argv_a = write_inputs(workload, 7, tmp_path / "a")
    argv_b = write_inputs(workload, 7, tmp_path / "b")
    assert Path(argv_a[1]).read_bytes() == Path(argv_b[1]).read_bytes()
    assert argv_a[2:] == argv_b[2:]


def test_matrix_families_have_their_defining_property():
    uniform = inputs(WORKLOADS["compare-uniform-n100"], 0)[0]
    assert uniform.min() >= 0.5 and uniform.max() <= 2.0
    # The base column holds 4x the row's original sum, so a step returns to
    # the base state with probability above 4/5 and mean tau is near 1.25.
    master = inputs(WORKLOADS["compare-master-n200"], 0)[0]
    assert (master[:, 0] / master.sum(axis=1) > 0.8).all()
    gw = inputs(WORKLOADS["gw-n10"], 0)[0]
    assert abs(np.abs(np.linalg.eigvals(gw)).max() - 3.0) < 1e-12


def test_corrupted_report_trips_the_gate(tmp_path):
    out = passing_report(TINY_COMPARE, tmp_path)
    report = json.loads(out)

    def corrupt(**changes) -> str:
        return json.dumps({**report, **changes}, sort_keys=True, indent=2) + "\n"

    assert check(TINY_COMPARE, 0, out.replace("0", "1", 1), out) != []
    off_simplex = [x * 1.001 for x in report["u_hat"]]
    assert "u_hat is off the simplex" in check(TINY_COMPARE, 0,
                                               corrupt(u_hat=off_simplex))
    assert check(TINY_COMPARE, 0, corrupt(l1_error=0.3)) != []
    assert check(TINY_COMPARE, 0, corrupt(lambda_rel_error=float("nan"))) != []
    assert check(TINY_COMPARE, 0, out[:-10])[0].startswith("malformed")
    gw = json.loads(passing_report(TINY_GW, tmp_path))
    assert "no surviving trees" in check(TINY_GW, 0,
                                         json.dumps({**gw, "survivors": 0}))


def test_gate_counts_failures_and_compares_with_the_first_report(tmp_path):
    out = passing_report(TINY_COMPARE, tmp_path)
    gate = Gate(TINY_COMPARE)
    gate.record(0, out)
    gate.record(0, out)
    gate.record(0, out.replace("\n", " ", 1))
    gate.record_traced(out, [])
    gate.record_traced(out + " ", [])
    assert (gate.attempted, gate.failed) == (5, 2)


def test_nonzero_exit_counts_as_a_failed_operation(tmp_path):
    cycle = tmp_path / "cycle.json"
    cycle.write_text(json.dumps({"n": 2, "rows": [[0, 1], [1, 0]]}))
    code, out, err = run_cli(["compare", str(cycle), "--samples", "100"])
    assert code == 2 and out == "" and "NotPrimitive" in err
    gate = Gate(TINY_COMPARE)
    gate.record(code, out, err)
    gate.record(*run_cli(write_inputs(TINY_COMPARE, 0, tmp_path)))
    assert (gate.attempted, gate.failed) == (2, 1)
    assert "exit code 2" in gate.problems[0]


def test_traced_compare_reproduces_the_cli_report_on_3x3(tmp_path):
    argv = write_inputs(TINY_COMPARE, 0, tmp_path)
    code, out, _ = run_cli(argv)
    rec = Recorder()
    text, counts = traced_operation(argv, rec)
    assert code == 0 and text == out
    assert [s[0] for s in rec.spans] == [
        "cli.main", "cli.parse_matrix", "matrix_core.check_primitive",
        "matrix_core.decompose", "chain_sim.build_sampler",
        "chain_sim.sample_batch", "estimator.estimate_lambda",
        "estimator.estimate_u", "estimator.g_hat",
        "estimator.shard_dispersion", "oracle.power_iteration",
        "oracle.quasispecies_residual"]
    assert all(parent == 0 for _, _, _, parent in rec.spans[1:])
    metrics = layer_metrics(rec, counts)
    assert metrics["chain_sim.visits"] == counts["visits"] > 0
    assert metrics["cli.self.s"] >= 0


def test_traced_gw_reproduces_the_cli_report_on_3x3(tmp_path):
    argv = write_inputs(TINY_GW, 0, tmp_path)
    code, out, _ = run_cli(argv)
    rec = Recorder()
    text, counts = traced_operation(argv, rec)
    assert code == 0 and text == out
    names = [s[0] for s in rec.spans]
    assert names.count("gw_app.tree_setup") == 40
    assert names.count("gw_app.step_generation") == counts["generations"] > 0


def test_a_traced_reproduction_of_other_code_is_caught(tmp_path):
    argv = write_inputs(TINY_COMPARE, 0, tmp_path)
    _, out, _ = run_cli(argv)
    other = argv[:-1] + [str(int(argv[-1]) + 1)]
    text, _ = traced_operation(other, Recorder())
    gate = Gate(TINY_COMPARE)
    gate.record(0, out)
    gate.record_traced(text, [])
    assert gate.failed == 1


@pytest.mark.parametrize("workload", [TINY_COMPARE, TINY_GW])
def test_exact_counts_repeat_for_one_seed(workload, tmp_path):
    argv = write_inputs(workload, 3, tmp_path)
    runs = []
    for _ in range(2):
        rec = Recorder()
        _, counts = traced_operation(argv, rec)
        runs.append(layer_metrics(rec, counts))
    assert [runs[0][name] for name in EXACT_COUNTS] == \
        [runs[1][name] for name in EXACT_COUNTS]


def test_tail_has_ten_operations_beyond_it():
    times = [float(t) for t in range(1, 21)]
    assert tail_of(times) == (10.0, 50.0)
    assert tail_of(times[:10]) == (10.0, 100.0)


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref", "wall_ref.tail", "peak_rss_mb", "setup_s"}


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "gw-n10",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
