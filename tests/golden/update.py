"""Rewrite the golden corpus's digests for the named cases only.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/update.py CASE [CASE ...]

Each named case of ``cases.json`` is run as ``tests/test_golden.py`` runs
it, and its stdout and stderr digests are replaced; every other case is
left as it is.  A case whose exit code differs from the one recorded is
refused, since exit codes are a contract: edit ``exit`` by hand if the
change is meant.  A new case is added to ``cases.json`` with null digests
and then named here.  Each digest that changes is printed, old and new,
for the change's notes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from _support import GOLDEN, golden_cases, run_golden, sha256  # noqa: E402


def dump(cases: list[dict]) -> str:
    """The corpus as ``cases.json`` holds it: one case a line."""
    return "[\n" + ",\n".join("  " + json.dumps(case) for case in cases) + "\n]\n"


def main(names: list[str]) -> int:
    cases = golden_cases()
    known = {case["name"] for case in cases}
    unknown = [name for name in names if name not in known]
    if not names or unknown:
        print(f"name one or more cases; unknown: {unknown}", file=sys.stderr)
        return 1
    for case in cases:
        if case["name"] not in names:
            continue
        code, out, err = run_golden(case["argv"])
        if code != case["exit"]:
            print(f"{case['name']}: exit {code}, recorded {case['exit']}",
                  file=sys.stderr)
            return 1
        for stream, text in (("stdout", out), ("stderr", err)):
            if case[stream] != sha256(text):
                print(f"{case['name']} {stream}: {case[stream]} -> "
                      f"{sha256(text)}")
                case[stream] = sha256(text)
    (GOLDEN / "cases.json").write_text(dump(cases))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
