"""Benchmark workloads: seeded input generation, the CLI operation, the gates.

Each workload is one ``perronmc`` CLI invocation on a generated matrix
file.  The matrix and the Monte Carlo seed handed to the CLI are a pure
function of ``(workload name, benchmark seed)``; the program sees only the
file and its flags.

Why these three workloads:

* ``compare-uniform-n100``: excursions average tau ~ N steps and each step
  gathers a full O(N) CDF row, so ``chain_sim.sample_batch`` is most of the
  operation.  Sampler work shows here.
* ``compare-master-n200``: the base-state column carries 4x each row's sum,
  so mean tau ~ 1.25 and sampling is a small share.  The dense
  ``(paths, N)`` counts matrix and the bisection mat-vecs in ``estimator``
  dominate time and peak memory, and 8 shards run the jackknife.  Estimator
  work shows here; a sampler change should barely move it.
* ``gw-n10``: the slowest subcommand, almost all per-tree Python loops in
  ``gw_app.step_generation``.  It never touches ``chain_sim`` or
  ``estimator``, so it bypasses changes to those two modules.
"""

from __future__ import annotations

import contextlib
import io
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from perronmc import cli

SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One CLI operation on a generated matrix.

    Attributes:
        name: workload name as given to ``--workload``.
        subcommand: the CLI subcommand run.
        n: matrix size.
        kind: matrix family, ``uniform``, ``master`` or ``lambda3``.
        flags: CLI flags besides the matrix path and ``--seed``.
        tolerances: report field -> largest accepted value.
    """

    name: str
    subcommand: str
    n: int
    kind: str
    flags: tuple[str, ...]
    tolerances: dict


# Accuracy tolerances are three times the largest value seen over
# Monte Carlo seeds 0..19 (``python3 perfbench/calibrate.py``).  The margin
# keeps a declared random-stream change, which is a fresh draw, inside them.
WORKLOADS = {
    w.name: w for w in (
        Workload("compare-uniform-n100", "compare", 100, "uniform",
                 ("--samples", "20000", "--shards", "1"),
                 {"lambda_rel_error": 2.4e-4, "l1_error": 0.02}),
        Workload("compare-master-n200", "compare", 200, "master",
                 ("--samples", "100000", "--shards", "8"),
                 {"lambda_rel_error": 3.8e-4, "l1_error": 0.049}),
        Workload("gw-n10", "gw-sim", 10, "lambda3",
                 ("--trials", "1000", "--horizon", "10",
                  "--offspring-law", "poisson"),
                 {"l1_to_oracle": 4.3e-4}),
    )
}


def make_matrix(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """A dense positive matrix of the given family.

    ``uniform`` has entries from uniform(0.5, 2); ``master`` sets the
    base-state column of such a matrix to 4x each row's sum; ``lambda3``
    rescales a uniform one so its dominant eigenvalue is 3.
    """
    a = rng.uniform(0.5, 2.0, (n, n))
    if kind == "master":
        a[:, 0] = 4.0 * a.sum(axis=1)
    elif kind == "lambda3":
        a *= 3.0 / float(np.abs(np.linalg.eigvals(a)).max())
    elif kind != "uniform":
        raise ValueError(f"unknown matrix kind {kind!r}")
    return a


def inputs(workload: Workload, seed: int) -> tuple[np.ndarray, int]:
    """The matrix and the CLI's ``--seed`` for one benchmark seed."""
    rng = np.random.default_rng([zlib.crc32(workload.name.encode()), seed])
    matrix = make_matrix(workload.kind, workload.n, rng)
    return matrix, int(rng.integers(1 << 32))


def write_inputs(workload: Workload, seed: int, directory: Path) -> list[str]:
    """Write the matrix file into ``directory`` and return the CLI argv."""
    matrix, cli_seed = inputs(workload, seed)
    path = Path(directory) / f"{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"n": int(matrix.shape[0]),
                                "rows": matrix.tolist()}))
    return [workload.subcommand, str(path), *workload.flags,
            "--seed", str(cli_seed)]


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``perronmc.cli.main(argv)`` in-process; (exit code, stdout, stderr).

    An exception that escapes ``main`` is what a user sees as a crash, so
    it is reported as exit code 1 with its message, not raised.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            print(f"crash: {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def check(workload: Workload, code: int, stdout: str,
          reference: str | None = None) -> list[str]:
    """Gate one operation; returns the problems found, empty when it passes.

    With a ``reference`` (an earlier report of the same run that passed)
    the report must equal it byte for byte.  Without one, the report's
    content is checked: ``u_hat`` on the simplex, survivors, and every
    tolerance of the workload.
    """
    if code != 0:
        return [f"exit code {code}"]
    if reference is not None:
        return [] if stdout == reference else ["report differs from the first"]
    try:
        report = json.loads(stdout)
        problems = []
        if workload.subcommand == "compare":
            u_hat = np.asarray(report["u_hat"], dtype=float)
            if (u_hat < 0).any() or abs(float(u_hat.sum()) - 1.0) > SIMPLEX_TOL:
                problems.append("u_hat is off the simplex")
        if workload.subcommand == "gw-sim" and not report["survivors"] > 0:
            problems.append("no surviving trees")
        for field, bound in workload.tolerances.items():
            if not report[field] <= bound:
                problems.append(f"{field}={report[field]!r} exceeds {bound}")
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


class Gate:
    """Gates every operation of one run and counts the failures.

    The first report that passes the content checks becomes the run's
    reference; every later CLI report and every traced reproduction must
    equal it byte for byte.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, code: int, stdout: str, stderr: str = "") -> None:
        """Gate one CLI operation."""
        problems = check(self.workload, code, stdout, self.reference)
        if problems and stderr.strip():
            problems.append(stderr.strip())
        self._count(problems)
        if not problems and self.reference is None:
            self.reference = stdout

    def record_traced(self, text: str, problems: list[str]) -> None:
        """Gate a traced reproduction against the CLI's report, adding
        ``problems`` the caller found in it."""
        if text != self.reference:
            problems = ["traced report differs from the CLI report", *problems]
        self._count(problems)

    def _count(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append("; ".join(problems))
