"""Command-line surface: load a matrix, run a subcommand, emit a report.

Subcommands:
    estimate     Monte Carlo eigenpair with diagnostics.
    oracle       power-iteration eigenpair plus the equilibrium residual.
    compare      the oracle report, then the estimate report, then the L1
                 eigenvector gap and the relative eigenvalue gap, taken
                 from the arrays.
    lemma-check  partial sums of the return-weight series at the oracle value.
    gw-sim       branching-tree type proportions against the oracle vector.

Each subcommand takes only the flags it reads, and refuses a bad one
before power iteration, which runs before any sampling.  States are
1-based on this surface, in reports and in every error message, the
library's included; the library's arguments and the errors' attributes
are 0-based.  Reports carry the full resolved configuration, contain no
timestamps, and are byte-identical for identical invocations.

Exit codes: 0 success, otherwise the ``exit_code`` of the error's family
in :mod:`perronmc.errors`: 1 bad input (parse/validation/precondition,
and usage errors), 2 not primitive, 3 a statistical or numerical guard
refused to report.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import estimator, gw_app, oracle
from .errors import (InputError, InvalidArgument, ParseError, PerronMCError,
                     check_base_state)
from .matrix_core import NonNegativeMatrix, validate

__all__ = ["parse_matrix", "run", "main"]


def parse_matrix(path: str | Path) -> NonNegativeMatrix:
    """Load and validate a matrix from a .json or .csv file.

    Raises:
        ParseError: unknown extension, a missing or unreadable file, bytes
            that are not UTF-8 text, malformed content (with the offending
            line/field where applicable).
        NegativeEntry/ZeroRow/NotSquare...: validation failures, unchanged.
        NotPrimitive: the matrix is reducible or periodic.
    """
    path = Path(path)
    readers = {".json": _rows_from_json, ".csv": _rows_from_csv}
    if path.suffix not in readers:
        raise ParseError(str(path), f"unsupported extension {path.suffix!r}")
    try:
        # Not "utf-8-sig": it counts a bad byte's place from after the mark.
        text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise ParseError(str(path), exc.strerror or str(exc))
    except UnicodeDecodeError as exc:
        raise ParseError(str(path), f"byte {exc.start + 1} is not UTF-8 text")
    return validate(readers[path.suffix](str(path), text))


def _json_int(digits: str) -> int | float:
    # Past Python's limit on digits for int conversion, read the integer as
    # the float it rounds to, infinity, which validate refuses.
    try:
        return int(digits)
    except ValueError:
        return float(digits)


def _rows_from_json(path: str, text: str) -> list[list[float]]:
    try:
        payload = json.loads(text, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc}")
    except RecursionError:
        raise ParseError(path, "invalid JSON: nested too deeply")
    if not isinstance(payload, dict) or "n" not in payload or "rows" not in payload:
        raise ParseError(path, 'expected an object {"n": ..., "rows": ...}')
    n, rows = payload["n"], payload["rows"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(path, f'"n" must be an integer, got {json.dumps(n)}')
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(path, f'"rows" must hold exactly n={n} rows')
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(path, f"row {i + 1} does not have {n} fields")
        # Exact types: a JSON true or false is read as a bool, not a number.
        if not {int, float}.issuperset(map(type, row)):
            j = [type(value) in (int, float) for value in row].index(False)
            raise ParseError(path, f"row {i + 1}, field {j + 1}: not a number")
    return rows


def _rows_from_csv(path: str, text: str) -> list[list[float]]:
    # Blank lines are skipped but still counted, so messages name file lines.
    rows: list[list[float]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        row = []
        for j, field in enumerate(line.split(",")):
            try:
                row.append(float(field))
            except ValueError:
                raise ParseError(
                    path,
                    f"line {number}, field {j + 1}: {field.strip()!r} is not a number",
                )
        if rows and len(row) != len(rows[0]):
            raise ParseError(path, f"line {number} has {len(row)} fields, "
                                   f"expected {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ParseError(path, "file is empty")
    return rows


def _config_dict(cfg: argparse.Namespace) -> dict:
    """The resolved invocation as the report echoes it: every flag of the
    subcommand, plus the offspring sampler under the Poisson law."""
    config = vars(cfg).copy()
    if config.get("offspring_law") == "poisson":
        config["gw_sampler"] = gw_app.POISSON_SAMPLER
    return config


def run(config: argparse.Namespace) -> dict:
    """Execute one subcommand and return the report as a plain dict.

    ``config`` is the resolved invocation from :func:`_config_from_args`;
    every field is echoed into the report.  ``compare`` is the ``oracle``
    report, then the ``estimate`` report, then the two gaps, taken from the
    arrays; power iteration runs before sampling.
    """
    matrix = parse_matrix(config.matrix_path)
    command = config.subcommand
    # Refused here: the sampling flags, by the config, and the base state.
    if command in ("estimate", "compare"):
        est = estimator.EstimationConfig(
            base_state=config.base_state - 1, samples=config.samples,
            seed=config.seed, cap=config.cap, shards=config.shards,
            tol=config.tol)
    if "base_state" in config:
        check_base_state(config.base_state - 1, matrix.n)

    payload = {}
    if command in ("oracle", "compare"):
        pair = oracle.power_iteration(matrix)
        residual = oracle.quasispecies_residual(matrix, pair.vector)
        payload |= {
            "lambda": pair.eigenvalue,
            "u": pair.vector.tolist(),
            "power_residual": pair.residual,
            "qs_max_abs": residual.max_abs,
            "mean_fitness": residual.mean_fitness,
        }
    if command in ("estimate", "compare"):
        report = estimator.run_estimation(matrix, est)
        dispersion = report.dispersion
        payload |= {
            "lambda_hat": report.lambda_hat,
            "u_hat": report.u_hat.tolist(),
            "base_state": config.base_state,
            "samples": config.samples,
            "truncated": report.truncated_count,
            "g_residual": report.g_residual,
            "dispersion": None if dispersion is None else dispersion.tolist(),
        }

    if command == "compare":
        payload["l1_error"] = float(np.abs(report.u_hat - pair.vector).sum())
        payload["lambda_rel_error"] = float(
            abs(report.lambda_hat - pair.eigenvalue) / pair.eigenvalue)
    elif command == "lemma-check":
        pair = oracle.power_iteration(matrix)
        series = oracle.lemma_partial_sums(matrix, config.base_state - 1,
                                           pair.eigenvalue)
        payload = {
            "lambda": pair.eigenvalue,
            "base_state": config.base_state,
            "final_partial_sum": float(series.partial_sums[-1]),
            "terms_used": int(series.terms.shape[0]),
            "tail_ratio": series.tail_ratio,
        }
    elif command == "gw-sim":
        proportions, survivors, pair = gw_app.conditioned_proportions(
            matrix, config.trials, config.horizon, config.seed,
            law=config.offspring_law,
        )
        payload = {
            "proportions": proportions.tolist(),
            "survivors": survivors,
            "lambda": pair.eigenvalue,
            "u": pair.vector.tolist(),
            "l1_to_oracle": float(np.abs(proportions - pair.vector).sum()),
        }
    elif command not in ("estimate", "oracle"):
        raise InvalidArgument(f"unknown subcommand {command!r}")

    payload["config"] = _config_dict(config)
    return payload


def _render_text(payload: dict, prefix: str = "") -> Iterator[str]:
    """The report as sorted ``key: value`` lines, nested keys dotted."""
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            yield from _render_text(value, prefix=f"{prefix}{key}.")
        elif isinstance(value, list):
            yield f"{prefix}{key}: " + " ".join(map(_text, value))
        else:
            yield f"{prefix}{key}: {_text(value)}"


def _text(value) -> str:
    """One report value as text; a missing value reads as JSON's null."""
    return "null" if value is None else str(value)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input family's code, not argparse's 2,
    which this CLI reports for a matrix that is not primitive."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(InputError.exit_code, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    defaults = estimator.EstimationConfig()
    parser = _Parser(
        prog="perronmc",
        description="Dominant eigenpair of a non-negative matrix by "
                    "excursion-weighted Monte Carlo, with deterministic checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    subcommands = {
        "estimate": "Monte Carlo eigenpair",
        "oracle": "deterministic eigenpair",
        "compare": "estimate vs oracle",
        "lemma-check": "return-weight series at the oracle value",
        "gw-sim": "branching-tree type proportions",
    }
    # Each subcommand takes only the flags it reads.
    for name, summary in subcommands.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("matrix_path", metavar="matrix",
                       help="path to a .json or .csv matrix file")
        p.add_argument("--output", choices=("json", "text"), default="json")
        sampling = name in ("estimate", "compare")
        if sampling or name == "lemma-check":
            p.add_argument("--base-state", type=int,
                           default=defaults.base_state + 1,
                           help="1-based excursion base state "
                                "(default %(default)s)")
        if sampling or name == "gw-sim":
            p.add_argument("--seed", type=int, default=defaults.seed,
                           help="64-bit RNG seed")
        if sampling:
            p.add_argument("--samples", type=int, default=defaults.samples)
            p.add_argument("--cap", type=int, default=defaults.cap,
                           help="excursion length cap")
            p.add_argument("--shards", type=int, default=defaults.shards,
                           help="independent RNG streams")
            p.add_argument("--tol", type=float, default=defaults.tol,
                           help="tolerance on the mean return weight")
        if name == "gw-sim":
            p.add_argument("--trials", type=int, default=gw_app.DEFAULT_TRIALS)
            p.add_argument("--horizon", type=int,
                           default=gw_app.DEFAULT_HORIZON)
            p.add_argument("--offspring-law", choices=gw_app.OFFSPRING_LAWS,
                           default=gw_app.DEFAULT_LAW)
    return parser


def _config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The resolved invocation: the parsed flags, a seed reduced mod 2**64."""
    if "seed" in args:
        args.seed %= 1 << 64
    return args


def main(argv: list[str] | None = None) -> int:
    config = _config_from_args(_build_parser().parse_args(argv))
    try:
        payload = run(config)
    except PerronMCError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code

    if config.output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    else:
        print("\n".join(_render_text(payload)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
