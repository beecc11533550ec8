"""Derive the accuracy tolerances in ``workloads.py`` from seeds 0..19.

    python3 perfbench/calibrate.py

Runs each workload's operation once per benchmark seed (each seed draws a
new matrix and a new Monte Carlo seed) and prints, per gated report field,
the largest value seen and three times it, the tolerance to record.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, run_cli, write_inputs  # noqa: E402

SEEDS = range(20)
MARGIN = 3.0


def main() -> int:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    for workload in WORKLOADS.values():
        seen = {field: [] for field in workload.tolerances}
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            for seed in SEEDS:
                code, out, err = run_cli(write_inputs(workload, seed, Path(tmp)))
                if code != 0:
                    print(f"{workload.name} seed {seed}: exit {code}: {err}",
                          file=sys.stderr)
                    return 1
                report = json.loads(out)
                for field in seen:
                    seen[field].append(report[field])
        for field, values in seen.items():
            print(f"{workload.name} {field}: max {max(values):.3g} "
                  f"-> tolerance {MARGIN * max(values):.2g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
