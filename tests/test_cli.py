import json
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from perronmc import cli, estimator, gw_app, oracle
from perronmc.cli import main, parse_matrix
from perronmc.errors import (
    GuardError,
    InputError,
    InvalidArgument,
    NegativeEntry,
    NoConvergence,
    ParseError,
    PerronMCError,
    StructuralError,
)
from perronmc.estimator import EstimationConfig, run_estimation
from perronmc.matrix_core import validate

from _support import ACCEPTANCE_2X2, CYCLE_22


def _write(path, content):
    """Write text or bytes to ``path``; ``None`` makes it a directory."""
    if content is None:
        path.mkdir()
    elif isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)


@pytest.fixture
def matrix_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "rows": ACCEPTANCE_2X2}))
    return str(path)


@pytest.fixture
def matrix_csv(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1,2\n3,4\n")
    return str(path)


@pytest.fixture
def single_json(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"n": 1, "rows": [[4.25]]}))
    return str(path)


@pytest.fixture
def flip_csv(tmp_path):
    path = tmp_path / "flip.csv"
    path.write_text("0,1\n1,0\n")
    return str(path)


@pytest.fixture
def stochastic_csv(tmp_path):
    path = tmp_path / "stoch.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n")
    return str(path)


def _count_power_iterations(monkeypatch, fail: bool = False) -> list:
    """Wrap ``oracle.power_iteration`` in every module of the package that
    binds the name; the returned list grows by one matrix per call.  With
    ``fail`` each call raises :class:`NoConvergence` instead of running."""
    calls = []
    power_iteration = oracle.power_iteration

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        if fail:
            raise NoConvergence(oracle.POWER_MAX_ITER)
        return power_iteration(matrix, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "perronmc"
                and getattr(module, "power_iteration", None)
                is power_iteration):
            monkeypatch.setattr(module, "power_iteration", counted)
    return calls


class TestParseMatrix:
    def test_json_round_trip(self, matrix_json):
        matrix = parse_matrix(matrix_json)
        np.testing.assert_array_equal(matrix.entries, ACCEPTANCE_2X2)

    def test_csv_round_trip(self, matrix_csv):
        matrix = parse_matrix(matrix_csv)
        np.testing.assert_array_equal(matrix.entries, ACCEPTANCE_2X2)

    def test_json_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1, 2], [3]]}))
        with pytest.raises(ParseError):
            parse_matrix(str(path))

    def test_json_row_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "rows": [[1, 2], [3, 4]]}))
        with pytest.raises(ParseError):
            parse_matrix(str(path))

    def test_json_boolean_n(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": true, "rows": [[2]]}')
        with pytest.raises(ParseError) as exc:
            parse_matrix(str(path))
        assert '"n" must be an integer' in str(exc.value)

    # 5000 digits is also past Python's limit for int conversion.
    @pytest.mark.parametrize("zeros", [400, 5000])
    def test_json_integer_beyond_float_range(self, tmp_path, capsys, zeros):
        path = tmp_path / "big.json"
        path.write_text('{"n": 2, "rows": [[1, 1%s], [3, 4]]}' % ("0" * zeros))
        assert _exit_code(["oracle", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: NonFiniteEntry: entry (1, 2) is not "
                                "finite: inf\n")

    @pytest.mark.parametrize("rows,where", [
        ("[[true, 2, 3], [4, 5, 6], [7, 8, 9]]", "row 1, field 1"),
        ("[[1, 2, 3], [4, 5, [6]], [7, 8, 9]]", "row 2, field 3"),
        ("[[1, 2, 3], [4, 5, 6], [7, 8, true]]", "row 3, field 3"),
    ])
    def test_json_non_number_is_named(self, tmp_path, rows, where):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "rows": %s}' % rows)
        with pytest.raises(ParseError) as exc:
            parse_matrix(str(path))
        assert str(exc.value) == f"{path}: {where}: not a number"

    @pytest.mark.parametrize("text", [
        '{"n": 2, "rows": [[1, 2], [3, 4]]',
        '[[1, 2], [3, 4]]',
        '{"n": 2}',
        '{"n": 2, "rows": [[1, "x"], [3, 4]]}',
        '{"n": 2, "rows": [[1, true], [3, 4]]}',
        '{"n": 2, "rows": [[1, null], [3, 4]]}',
        None,
    ], ids=["invalid-json", "not-an-object", "no-rows", "string-entry",
            "bool-entry", "null-entry", "directory"])
    def test_json_refusals_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        _write(path, text)
        with pytest.raises(ParseError):
            parse_matrix(str(path))
        assert main(["oracle", str(path)]) == 1
        assert "error: ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["", "\n  \n", "1,2\n3\n",
                                      b"\xff\xfe1,2\n3,4\n"],
                             ids=["empty", "blank-lines", "ragged",
                                  "not-utf8"])
    def test_csv_refusals_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "bad.csv"
        _write(path, text)
        with pytest.raises(ParseError):
            parse_matrix(str(path))
        assert main(["oracle", str(path)]) == 1
        assert "error: ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix, text", [
        (".csv", "1,2\n3,4\n"),
        (".json", json.dumps({"n": 2, "rows": ACCEPTANCE_2X2})),
    ], ids=["csv", "json"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, suffix, text):
        # Excel's "CSV UTF-8" and PowerShell 5's UTF-8 files start with one.
        path = tmp_path / f"m{suffix}"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        matrix = parse_matrix(str(path))
        np.testing.assert_array_equal(matrix.entries, ACCEPTANCE_2X2)
        assert main(["oracle", str(path)]) == 0
        capsys.readouterr()
        # A bad byte is still counted from the start of the file.
        path.write_bytes(b"\xef\xbb\xbf1,2\n\xff")
        with pytest.raises(ParseError) as exc:
            parse_matrix(str(path))
        assert str(exc.value) == f"{path}: byte 8 is not UTF-8 text"

    def test_csv_bad_field_reports_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            parse_matrix(str(path))
        assert "line 2" in str(exc.value) and "field 2" in str(exc.value)

    def test_deeply_nested_json_is_refused(self, tmp_path, capsys):
        # 100,000 levels is past the nesting any Python's json parser takes.
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"n": 1, "rows": [[%s%s]]}' % ("[" * depth,
                                                      "]" * depth))
        with pytest.raises(ParseError) as exc:
            parse_matrix(str(path))
        assert str(exc.value).startswith(f"{path}: ")
        assert main(["oracle", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ParseError: ")
        assert captured.err.count("\n") == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(str(tmp_path / "absent.csv"))

    def test_unknown_extension(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ParseError):
            parse_matrix(str(path))

    def test_validation_error_passes_through(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,-2\n3,4\n")
        with pytest.raises(NegativeEntry):
            parse_matrix(str(path))


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def _exit_code(argv):
    """main's return value, or the status of the SystemExit it raised."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestSubcommands:
    def test_estimate_matches_library(self, capsys, matrix_json):
        code, payload = _run_json(capsys, [
            "estimate", matrix_json, "--samples", "5000", "--seed", "9",
        ])
        assert code == 0
        report = run_estimation(validate(ACCEPTANCE_2X2),
                                EstimationConfig(samples=5000, seed=9))
        assert payload["lambda_hat"] == report.lambda_hat
        assert payload["u_hat"] == report.u_hat.tolist()
        assert payload["base_state"] == 1
        assert payload["truncated"] == 0
        assert payload["config"]["samples"] == 5000

    def test_compare_discrepancies_recompute(self, capsys, matrix_json):
        code, payload = _run_json(capsys, [
            "compare", matrix_json, "--samples", "5000",
        ])
        assert code == 0
        u_hat = np.asarray(payload["u_hat"])
        u = np.asarray(payload["u"])
        assert payload["l1_error"] == float(np.abs(u_hat - u).sum())
        assert payload["lambda_rel_error"] == float(
            abs(payload["lambda_hat"] - payload["lambda"]) / payload["lambda"])
        assert payload["l1_error"] < 0.05

    def test_oracle_payload(self, capsys, matrix_csv):
        code, payload = _run_json(capsys, ["oracle", matrix_csv])
        assert code == 0
        assert payload["lambda"] == pytest.approx((5 + np.sqrt(33)) / 2,
                                                  abs=1e-10)
        assert payload["qs_max_abs"] < 1e-10
        assert payload["mean_fitness"] == pytest.approx(payload["lambda"],
                                                        abs=1e-10)

    def test_lemma_check_stochastic(self, capsys, stochastic_csv):
        code, payload = _run_json(capsys, ["lemma-check", stochastic_csv])
        assert code == 0
        assert abs(payload["final_partial_sum"] - 1.0) < 1e-8
        assert payload["terms_used"] >= 2

    def test_lemma_check_single_state_is_strict_json(self, capsys, tmp_path):
        # One term, so no tail ratio: the report says null, never NaN.
        path = tmp_path / "one.csv"
        path.write_text("4.25\n")
        assert main(["lemma-check", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out,
                             parse_constant=_reject_constant)
        assert payload["tail_ratio"] is None
        assert payload["final_partial_sum"] == 1.0

    def test_lemma_check_tail_ratio_past_the_float_range_is_null(
            self, capsys, tmp_path):
        # The terms are 1e-320 and 1.0: their ratio is past the float range.
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e-320, 1], [1, 0]]}))
        assert main(["lemma-check", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out, parse_constant=_reject_constant)
        assert payload["tail_ratio"] is None
        assert payload["terms_used"] == 2

    @pytest.mark.parametrize("rows,k", [
        ([[5e-324, 5e-324]] * 2, 0), ([[5e-324, 5e-324]] * 2, 1),
        ([[5e-324, 5e-324]] * 2, 1074), ([[5e-324, 5e-324]] * 2, 2000),
        (ACCEPTANCE_2X2, -1000), (ACCEPTANCE_2X2, 1), (ACCEPTANCE_2X2, 1000),
    ])
    def test_oracle_is_exact_under_dyadic_scaling(self, capsys, tmp_path,
                                                   rows, k):
        reports = []
        for name, power in (("a", 0), ("b", k)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(
                {"n": 2, "rows": np.ldexp(rows, power).tolist()}))
            reports.append(_run_json(capsys, ["oracle", str(path)]))
        (code_a, a), (code_b, b) = reports
        assert code_a == code_b == 0
        assert b["lambda"] == np.ldexp(a["lambda"], k)
        assert np.array(b["u"]).tobytes() == np.array(a["u"]).tobytes()
        if rows[0][0] == 5e-324:
            assert a["lambda"] == 1e-323
            assert a["u"] == [0.5, 0.5]

    def test_gw_sim(self, capsys, matrix_json):
        code, payload = _run_json(capsys, [
            "gw-sim", matrix_json, "--trials", "300", "--horizon", "8",
        ])
        assert code == 0
        assert payload["survivors"] > 0
        assert payload["l1_to_oracle"] < 0.1
        recomputed = float(np.abs(np.asarray(payload["proportions"])
                                  - np.asarray(payload["u"])).sum())
        assert payload["l1_to_oracle"] == recomputed

    def test_gw_sim_runs_power_iteration_once(self, capsys, matrix_json,
                                              monkeypatch):
        calls = _count_power_iterations(monkeypatch)
        assert main(["gw-sim", matrix_json, "--trials", "20",
                     "--horizon", "3"]) == 0
        assert len(calls) == 1

    def test_text_output(self, capsys, matrix_csv):
        code = main(["oracle", matrix_csv, "--output", "text"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda:" in out
        assert "config.subcommand: oracle" in out

    def test_text_output_renders_a_missing_tail_ratio_as_null(
            self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e-320, 1], [1, 0]]}))
        assert main(["lemma-check", str(path), "--output", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "tail_ratio: null" in lines
        assert not any("None" in line for line in lines)

    def test_text_output_renders_one_shard_dispersion_as_null(
            self, capsys, matrix_csv):
        assert main(["estimate", matrix_csv, "--output", "text",
                     "--shards", "1", "--samples", "200"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "dispersion: null" in lines
        assert not any("None" in line for line in lines)


SUBCOMMANDS = ("estimate", "oracle", "compare", "lemma-check", "gw-sim")

_ESTIMATE_FLAGS = {"--base-state", "--seed", "--samples", "--cap", "--shards",
                   "--tol"}
FLAGS = {
    "estimate": {"--output"} | _ESTIMATE_FLAGS,
    "oracle": {"--output"},
    "compare": {"--output"} | _ESTIMATE_FLAGS,
    "lemma-check": {"--output", "--base-state"},
    "gw-sim": {"--output", "--seed", "--trials", "--horizon",
               "--offspring-law"},
}

# No power of these is entrywise positive: a periodic chain, a Jordan block
# whose power iteration never settles, and a reducible upper triangle.
NOT_PRIMITIVE = {
    "cycle2": [[0, 1], [1, 0]],
    "jordan": [[1, 1], [0, 1]],
    "reducible3": [[2, 1, 0], [0, 2, 1], [0, 0, 3]],
}


class TestExitCodes:
    def test_not_primitive_is_two(self, capsys, flip_csv):
        code = main(["estimate", flip_csv])
        err = capsys.readouterr().err
        assert code == 2
        assert "NotPrimitive" in err

    @pytest.mark.parametrize("rows", NOT_PRIMITIVE.values(),
                             ids=NOT_PRIMITIVE.keys())
    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_every_subcommand_refuses_non_primitive(self, capsys, tmp_path,
                                                    subcommand, rows):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": len(rows), "rows": rows}))
        code = main([subcommand, str(path)])
        out, err = capsys.readouterr()
        assert code == 2
        assert "NotPrimitive" in err
        assert out == ""

    def test_zero_row_is_reported_before_not_primitive(self, capsys, tmp_path):
        # Rows 1 and 2 form a 2-cycle; row 3 is zero.
        path = tmp_path / "m.csv"
        path.write_text("0,1,0\n1,0,0\n0,0,0\n")
        code = main(["oracle", str(path)])
        out, err = capsys.readouterr()
        assert code == 1
        assert "ZeroRow" in err
        assert out == ""

    # Each message names the position as the file counts it, from 1; blank
    # lines count too.
    @pytest.mark.parametrize("text, code, message", [
        ("1,-1\n1,1\n", 1, "NegativeEntry: entry (1, 2) is negative: -1.0"),
        ("1,1\n1,nan\n", 1, "NonFiniteEntry: entry (2, 2) is not finite: nan"),
        ("0,1,0\n1,0,0\n0,0,0\n", 1, "ZeroRow: row 3 sums to zero"),
        ("1,1\n1e308,1e308\n", 1, "RowSumOverflow: row 2 sums beyond"),
        ("2,1,0\n0,2,1\n0,0,3\n", 2,
         "NotPrimitive: state 2 cannot reach state 1"),
        ("1,2\n\n3,oops\n", 1,
         "ParseError: m.csv: line 3, field 2: 'oops' is not a number"),
        ("\n1,2\n3,4,5\n", 1,
         "ParseError: m.csv: line 3 has 3 fields, expected 2"),
    ], ids=["negative", "non-finite", "zero-row", "overflow", "not-primitive",
            "field-after-blank-line", "width-after-blank-line"])
    def test_messages_count_positions_from_one(self, capsys, tmp_path,
                                               monkeypatch, text, code,
                                               message):
        (tmp_path / "m.csv").write_text(text)
        monkeypatch.chdir(tmp_path)
        assert main(["oracle", "m.csv"]) == code
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_every_subcommand_refuses_an_infinite_row_sum(self, capsys,
                                                          tmp_path,
                                                          subcommand):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "rows": [[1e308, 1e308],
                                                     [1, 1]]}))
        assert main([subcommand, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: RowSumOverflow: row 1 sums beyond the float "
                       "range\n")

    def test_unknown_subcommand_is_refused(self, matrix_csv):
        config = cli._config_from_args(
            cli._build_parser().parse_args(["oracle", matrix_csv]))
        config.subcommand = "eigen"
        with pytest.raises(InvalidArgument):
            cli.run(config)

    def test_parse_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,x\n3,4\n")
        assert main(["estimate", str(path)]) == 1

    def test_validation_error_is_one(self, capsys, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("1,-2\n3,4\n")
        assert main(["estimate", str(path)]) == 1

    def test_base_state_out_of_range_is_one(self, capsys, matrix_csv):
        # The library refuses the state, with the CLI's 1-based numbering.
        for subcommand in ("estimate", "compare", "lemma-check"):
            for base_state in ("0", "3"):
                assert main([subcommand, matrix_csv,
                             "--base-state", base_state]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert err == (f"error: InvalidArgument: base state "
                               f"{base_state} outside 1..2\n")

    def test_subcritical_is_one(self, capsys, stochastic_csv):
        assert main(["gw-sim", stochastic_csv, "--trials", "10"]) == 1

    def test_truncation_guard_is_three(self, capsys, tmp_path):
        path = tmp_path / "sticky.csv"
        path.write_text("0,1\n1,500\n")
        code = main(["estimate", str(path), "--samples", "2000",
                     "--cap", "1000"])
        err = capsys.readouterr().err
        assert code == 3
        assert "TruncationBiasGuard" in err

    def test_series_cut_off_at_the_term_cap_is_three(self, capsys,
                                                    monkeypatch, tmp_path):
        # lambda = 1.0000001 and the matrix without state 1 has spectral
        # radius 1, so the terms shrink by a factor of about 1 - 1e-7 per
        # step and the partial sum is far from 1 when the cap stops it.
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(
            {"n": 3, "rows": [[0, 1e-7, 0], [0, 0, 1], [1, 0, 1]]}))
        monkeypatch.setattr(oracle, "LEMMA_MAX_TERMS", 1000)
        code = main(["lemma-check", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: NoConvergence: ")
        assert "cap of 1000 terms" in captured.err

    def test_series_with_weight_still_out_is_three(self, capsys,
                                                   monkeypatch, tmp_path):
        # Every term past the first is about 1e-16, yet the weight held by
        # state 2 returns over about 1e16 steps, so the series sums to 1:
        # terms that are all small do not end it, the tail bound does.
        path = tmp_path / "quiet.json"
        path.write_text(json.dumps(
            {"n": 2, "rows": [[0, 1e-8], [1e-8, 1]]}))
        monkeypatch.setattr(oracle, "LEMMA_MAX_TERMS", 1000)
        code = main(["lemma-check", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: NoConvergence: ")
        assert "cap of 1000 terms" in captured.err

    @pytest.mark.parametrize("law,rows", [
        # Generation 1 stays under the 1e9 ceiling in every type, and
        # generation 2 expects about 9.7e18 children in all, past what
        # numpy's Poisson sampler accepts.
        ("poisson", [[7.5e7] * 12] * 12),
        # Row 0 gives each type about 9.9e8 children; generation 2 then
        # owes 9.8e18 children to type 0's parents, past int64.
        ("deterministic", [[990_000_000] * 10] + [[1] * 10] * 9),
    ])
    def test_population_past_the_draw_limit_is_three(self, capsys, tmp_path,
                                                     law, rows):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": len(rows), "rows": rows}))
        code = main(["gw-sim", str(path), "--offspring-law", law,
                     "--trials", "5", "--horizon", "4"])
        captured = capsys.readouterr()
        assert code == 3
        assert "PopulationOverflow" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("rows", [[[1e308, 1e-300], [1, 1]],
                                      [[1e-300, 1e300], [1e300, 1e-300]]])
    def test_deterministic_means_past_int64_are_refused_quietly(
            self, capsys, tmp_path, rows):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 2, "rows": rows}))
        code = main(["gw-sim", str(path), "--offspring-law", "deterministic",
                     "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: PopulationOverflow: population "
                                "exceeded the ceiling 1000000000 at "
                                "generation 1\n")

    @pytest.mark.parametrize("subcommand",
                             ["oracle", "compare", "lemma-check", "gw-sim"])
    def test_underflowing_power_iteration_is_refused_at_once(
            self, capsys, tmp_path, subcommand):
        # Valid and primitive, but the first iterate puts half its weight
        # on each of states 3 and 4, whose rows hold only the smallest
        # float, and half of that float rounds to zero.
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({"n": 4, "rows": [
            [0, 0, 1, 0], [0, 0, 0, 1],
            [5e-324, 5e-324, 0, 0], [5e-324, 5e-324, 0, 5e-324]]}))
        # compare runs power iteration before it samples, so it refuses at
        # once at the default sample count.
        start = time.perf_counter()
        code = main([subcommand, str(path)])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == ("error: NoConvergence: power iteration "
                                "underflowed: iterate 2 sums to 0.0; the "
                                "entries are too small to iterate\n")
        assert elapsed < 1.0

    def test_row_sums_past_the_float_range(self, capsys, tmp_path):
        # Row sums 2, 5e-324 and 1e-323 are solved without a warning.
        path = tmp_path / "span.json"
        path.write_text(json.dumps({"n": 3, "rows": [
            [0, 1, 1], [5e-324, 0, 0], [5e-324, 0, 5e-324]]}))
        code = main(["estimate", str(path), "--samples", "2000"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["lambda_hat"] == pytest.approx(
            3.1435e-162, rel=0.01)

    def test_row_sums_that_vanish_against_lam(self, capsys, tmp_path):
        # lam is near 3, so 5e-324 / lam rounds to 0: the visits to states
        # 2 and 3 weigh by the logs of the scaled row sums, without a
        # warning.
        path = tmp_path / "vanish.json"
        path.write_text(json.dumps({"n": 3, "rows": [
            [3, 0.5, 0], [0, 0, 5e-324], [5e-324, 0, 0]]}))
        code = main(["compare", str(path), "--samples", "2000"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""

    @pytest.mark.parametrize("subcommand,error", [
        pytest.param("estimate", (
            "TallyOverflow: the visit weights from base state 1 sum past "
            "the float range; try base state 22, whose tally is the "
            "largest\n"), id="estimate"),
        # compare runs power iteration first, and it refuses the cycle.
        pytest.param("compare", "NoConvergence: power iteration underflowed",
                     id="compare"),
    ])
    def test_tally_past_the_float_range_is_refused(self, capsys, tmp_path,
                                                   subcommand, error):
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 22, "rows": CYCLE_22}))
        code = main([subcommand, str(path), "--samples", "2000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: " + error)

    @pytest.mark.parametrize("args", [
        ["oracle"], ["lemma-check"], ["gw-sim", "--trials", "10"],
        ["compare", "--base-state", "22", "--samples", "2000"],
    ], ids=["oracle", "lemma-check", "gw-sim", "compare-from-22"])
    def test_settled_underflowed_iterate_is_refused_at_once(
            self, capsys, tmp_path, args):
        # The cycle's product, 5e-324, underflows in v @ A, so the iterate
        # settles at 22 iterations on eigenvalue 1e-300, the self-loop's,
        # not 2.0149e-15, with a residual far above 1e-10 times it.
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 22, "rows": CYCLE_22}))
        start = time.perf_counter()
        code = main([args[0], str(path), *args[1:]])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith(
            "error: NoConvergence: power iteration underflowed: iterate 22 "
            "settled with a residual ")
        assert captured.err.endswith(
            " times its eigenvalue; the entries are too small to iterate\n")
        assert elapsed < 1.0

    def test_tally_from_the_suggested_base_state(self, capsys, tmp_path):
        # From state 22 every weight is at most 1, and lam is the geometric
        # mean of the cycle's entries, 5e-324 ** (1 / 22).
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps({"n": 22, "rows": CYCLE_22}))
        code = main(["estimate", str(path), "--samples", "2000",
                     "--base-state", "22"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert json.loads(captured.out)["lambda_hat"] == pytest.approx(
            2.0149e-15, rel=1e-4)

    def test_root_below_the_float_range_is_refused(self, capsys, tmp_path):
        # The eigenvalue, about 1.3e-113, is more than 2**1022 times below
        # the largest row sum, 2**1023: past the normal range of the solve.
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 3, "rows": [
            [0, 2**1023, 0], [0, 0, 5e-324], [5e-324, 0, 5e-324]]}))
        code = main(["estimate", str(path), "--samples", "2000"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: EigenvalueUnderflow: the eigenvalue lies more than "
            "2**1022 times below the largest row sum 8.98846567431158e+307; "
            "the lam solve cannot resolve it in floating point\n")

    def test_cap_one_all_truncated(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0,1\n1,1\n")
        code = main(["estimate", str(path), "--samples", "50", "--cap", "1"])
        assert code == 3
        assert "AllTruncated" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,reason", [
        (["estimate", "M", "--output", "xml"], "usage:"),
        (["estimate"], "usage:"),
        (["estimate", "M", "--samples", "0"], "InvalidArgument"),
        (["gw-sim", "M", "--trials", "0"], "InvalidArgument"),
        (["gw-sim", "M", "--horizon", "0"], "InvalidArgument"),
        (["estimate", "M", "--samples", "2000", "--tol", "1"], "InvalidArgument"),
        (["estimate", "M", "--samples", "2000", "--tol", "inf"], "InvalidArgument"),
        (["estimate", "M", "--samples", "2000", "--tol", "nan"], "InvalidArgument"),
        # A 1x1 matrix runs through the same sampling checks.
        (["estimate", "ONE", "--samples", "0"], "InvalidArgument"),
        (["estimate", "ONE", "--cap", "0"], "InvalidArgument"),
        (["estimate", "ONE", "--shards", "0"], "InvalidArgument"),
        (["estimate", "ONE", "--tol", "0"], "InvalidArgument"),
        # A subcommand refuses a flag it would not read.
        (["oracle", "M", "--seed", "1"], "usage:"),
        (["oracle", "M", "--base-state", "1"], "usage:"),
        (["lemma-check", "M", "--seed", "1"], "usage:"),
        (["gw-sim", "M", "--base-state", "1"], "usage:"),
    ])
    def test_bad_input_is_one(self, capsys, matrix_csv, single_json, argv,
                              reason):
        files = {"M": matrix_csv, "ONE": single_json}
        argv = [files.get(a, a) for a in argv]
        assert _exit_code(argv) == 1
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["lemma-check", "M", "--base-state", "3"],
        ["gw-sim", "M", "--trials", "0"],
        ["gw-sim", "M", "--horizon", "0"],
        ["gw-sim", "HALF", "--offspring-law", "deterministic"],
        ["compare", "M", "--samples", "0"],
        ["compare", "M", "--tol", "1"],
        ["compare", "M", "--base-state", "3"],
    ])
    def test_bad_argument_is_refused_before_power_iteration(
            self, capsys, monkeypatch, tmp_path, matrix_csv, argv):
        # Power iteration would fail here, so refusing after it would
        # report exit 3, not the argument's exit 1.
        half = tmp_path / "half.csv"
        half.write_text("1.5,1\n1,2\n")
        files = {"M": matrix_csv, "HALF": str(half)}
        calls = _count_power_iterations(monkeypatch, fail=True)
        assert main([files.get(a, a) for a in argv]) == 1
        assert "error: InvalidArgument: " in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("tol", ["1", "0", "nan"])
    def test_bad_tol_is_refused_before_sampling(self, capsys, monkeypatch,
                                                matrix_csv, tol):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking tol")

        monkeypatch.setattr(estimator, "sample_batch", no_sampling)
        assert main(["estimate", matrix_csv, "--tol", tol]) == 1
        assert "InvalidArgument" in capsys.readouterr().err

    def test_compare_refused_by_power_iteration_never_samples(
            self, capsys, monkeypatch, matrix_csv):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before power iteration")

        monkeypatch.setattr(estimator, "sample_batch", no_sampling)
        calls = _count_power_iterations(monkeypatch, fail=True)
        assert main(["compare", matrix_csv]) == 3
        assert "error: NoConvergence: " in capsys.readouterr().err
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["estimate", "--help"]])
    def test_help_is_zero(self, capsys, argv):
        assert _exit_code(argv) == 0
        assert "usage:" in capsys.readouterr().out

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_help_lists_only_the_flags_the_subcommand_reads(self, capsys,
                                                            subcommand):
        assert _exit_code([subcommand, "--help"]) == 0
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        assert flags - {"--help"} == FLAGS[subcommand]

    def test_every_error_exits_with_its_family_code(self, capsys, monkeypatch,
                                                    matrix_csv):
        families = (InputError, StructuralError, GuardError)
        assert [f.exit_code for f in families] == [1, 2, 3]
        pending, concrete = [PerronMCError], []
        while pending:
            for sub in pending.pop().__subclasses__():
                pending.append(sub)
                if sub not in families:
                    concrete.append(sub)
        assert len(concrete) == 18
        for cls in concrete:
            owners = [f for f in families if issubclass(cls, f)]
            assert len(owners) == 1, cls
            # Skip each class's own constructor; only its type matters here.
            exc = cls.__new__(cls)

            def fail(config, exc=exc):
                raise exc

            monkeypatch.setattr(cli, "run", fail)
            assert main(["oracle", matrix_csv]) == owners[0].exit_code, cls
            assert f"error: {cls.__name__}" in capsys.readouterr().err


class TestDefaults:
    def test_cli_defaults_are_the_library_defaults(self):
        parser = cli._build_parser()
        est = parser.parse_args(["estimate", "m.csv"])
        gw = parser.parse_args(["gw-sim", "m.csv"])
        lib = EstimationConfig()
        assert (
            (est.base_state - 1, est.samples, est.seed, est.cap, est.shards,
             est.tol, gw.seed, gw.trials, gw.horizon, gw.offspring_law)
            == (lib.base_state, lib.samples, lib.seed, lib.cap, lib.shards,
                lib.tol, lib.seed, gw_app.DEFAULT_TRIALS,
                gw_app.DEFAULT_HORIZON, gw_app.DEFAULT_LAW)
        )

    @pytest.mark.parametrize("subcommand", ["estimate", "compare", "gw-sim"])
    def test_seed_is_reduced_mod_2_64(self, subcommand):
        parse = cli._build_parser().parse_args
        for seed, reduced in (("-1", 2**64 - 1), (str(2**64 + 5), 5)):
            config = cli._config_from_args(
                parse([subcommand, "m.csv", "--seed", seed]))
            assert config.seed == reduced


SCHEMAS = {
    "estimate": {
        "lambda_hat": float, "u_hat": list, "base_state": int,
        "samples": int, "truncated": int, "g_residual": float,
        "dispersion": (list, type(None)), "config": dict,
    },
    "oracle": {
        "lambda": float, "u": list, "power_residual": float,
        "qs_max_abs": float, "mean_fitness": float, "config": dict,
    },
    "lemma-check": {
        "lambda": float, "base_state": int, "final_partial_sum": float,
        "terms_used": int, "tail_ratio": float, "config": dict,
    },
    "gw-sim": {
        "proportions": list, "survivors": int, "lambda": float, "u": list,
        "l1_to_oracle": float, "config": dict,
    },
}

_COMMON_CONFIG = {"subcommand", "matrix_path", "output"}
CONFIG_KEYS = {
    "estimate": _COMMON_CONFIG | {"base_state", "seed", "samples", "cap",
                                  "shards", "tol"},
    "oracle": _COMMON_CONFIG,
    "lemma-check": _COMMON_CONFIG | {"base_state"},
    "gw-sim": _COMMON_CONFIG | {"seed", "trials", "horizon", "offspring_law",
                                "gw_sampler"},
}


class TestReportSchemas:
    @pytest.mark.parametrize("subcommand", sorted(SCHEMAS))
    def test_report_reparses_under_schema(self, capsys, matrix_json,
                                          subcommand):
        argv = [subcommand, matrix_json]
        if subcommand == "estimate":
            argv += ["--seed", "3", "--samples", "2000", "--shards", "2"]
        if subcommand == "gw-sim":
            argv += ["--seed", "3", "--trials", "100", "--horizon", "5"]
        code, payload = _run_json(capsys, argv)
        assert code == 0
        schema = SCHEMAS[subcommand]
        assert set(payload) == set(schema)
        for key, expected in schema.items():
            assert isinstance(payload[key], expected), key
        assert payload["config"]["subcommand"] == subcommand
        assert set(payload["config"]) == CONFIG_KEYS[subcommand]

    def test_only_the_poisson_law_carries_a_sampler_tag(self, capsys,
                                                       matrix_json):
        # Deterministic-law reports carry no tag; test_gw_app pins their
        # bytes.
        argv = ["gw-sim", matrix_json, "--trials", "5", "--horizon", "3"]
        _, poisson = _run_json(capsys, argv)
        _, fixed = _run_json(capsys, argv + ["--offspring-law",
                                             "deterministic"])
        assert poisson["config"]["gw_sampler"] == gw_app.POISSON_SAMPLER
        assert "gw_sampler" not in fixed["config"]

    def test_compare_superset_of_estimate_and_oracle(self, capsys,
                                                     matrix_json):
        # compare is the oracle report and the estimate report, value for
        # value, plus the two gaps; with 4 shards the dispersion is a list.
        flags = ["--samples", "2000", "--shards", "4"]
        reports = {}
        for subcommand in ("oracle", "estimate", "compare"):
            code, reports[subcommand] = _run_json(
                capsys, [subcommand, matrix_json]
                + (flags if subcommand != "oracle" else []))
            assert code == 0
        payload = reports.pop("compare")
        expected = (set(SCHEMAS["estimate"]) | set(SCHEMAS["oracle"])
                    | {"l1_error", "lambda_rel_error"})
        assert set(payload) == expected
        assert isinstance(payload["dispersion"], list)
        for key in expected - {"l1_error", "lambda_rel_error", "config"}:
            source = "oracle" if key in SCHEMAS["oracle"] else "estimate"
            assert payload[key] == reports[source][key], key


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, capsys, matrix_json):
        main(["estimate", matrix_json, "--samples", "2000"])
        first = capsys.readouterr().out
        main(["estimate", matrix_json, "--samples", "2000"])
        second = capsys.readouterr().out
        assert first == second

    def test_subprocess_entrypoint(self, matrix_json):
        cmd = [sys.executable, "-m", "perronmc", "compare", matrix_json,
               "--samples", "2000"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0
        assert a.stdout == b.stdout
        payload = json.loads(a.stdout)
        assert {"lambda_hat", "u_hat", "lambda", "u", "l1_error",
                "lambda_rel_error", "config"} <= payload.keys()
