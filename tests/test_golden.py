"""The golden corpus: CLI reports and refusals pinned byte for byte.

Each case of ``golden/cases.json`` runs ``perronmc`` on a small input of
``golden/inputs`` and must give the recorded exit code and the sha256 of
the recorded stdout and stderr.  Reports are byte-identical for identical
invocations, so a change that moves a bit of any report, or rewords a
refusal, fails here until ``golden/update.py`` rewrites that case's
digests.
"""

import json

import pytest

from _support import GOLDEN, golden_cases, run_golden, sha256

CASES = golden_cases()


def test_corpus_is_large_and_named_once():
    names = [case["name"] for case in CASES]
    assert len(names) >= 40
    assert len(set(names)) == len(names)


def test_corpus_covers_every_subcommand_and_exit_code():
    assert {case["argv"][0] for case in CASES} == {
        "estimate", "oracle", "compare", "lemma-check", "gw-sim"}
    assert {case["exit"] for case in CASES} == {0, 1, 2, 3}


def test_file_is_in_its_own_format():
    from golden.update import dump

    assert (GOLDEN / "cases.json").read_text() == dump(CASES)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden(case):
    code, out, err = run_golden(case["argv"])
    assert code == case["exit"]
    assert (sha256(out), sha256(err)) == (case["stdout"], case["stderr"]), (
        out[-500:], err[-500:])
    if case["exit"]:
        assert out == ""
    else:
        assert err == ""
        if "text" not in case["argv"]:
            json.loads(out)
