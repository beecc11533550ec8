"""The README's library and CLI examples run and do what they promise."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

from perronmc import cli

from _support import closed_form_2x2

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)


def test_library_example_prints_the_eigenvalue_and_a_small_gap():
    (block,) = _python_blocks()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    first, second = out.getvalue().splitlines()
    lambda_hat, eigenvalue = map(float, first.split())
    lam, _ = closed_form_2x2()                  # 5.3723
    assert abs(eigenvalue - lam) < 1e-9
    assert abs(lambda_hat - lam) / lam < 0.01
    assert 0.0 <= float(second) < 0.01


def _cli_commands() -> list[list[str]]:
    """The ``perronmc ...`` lines of the README's bash blocks, as argv."""
    commands = []
    for block in re.findall(r"```bash\n(.*?)```", README.read_text(),
                            re.DOTALL):
        for line in block.splitlines():
            if line.startswith("perronmc "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    # The matrix the README shows as the JSON file format.
    (example,) = re.findall(r'`(\{"n": .*?\})`', README.read_text())
    rows = json.loads(example)["rows"]
    (tmp_path / "matrix.json").write_text(example)
    (tmp_path / "matrix.csv").write_text(
        "".join(",".join(map(str, row)) + "\n" for row in rows))
    monkeypatch.chdir(tmp_path)
    commands = _cli_commands()
    assert {argv[0] for argv in commands} == {
        "estimate", "oracle", "compare", "lemma-check", "gw-sim"}
    for argv in commands:
        assert cli.main(argv) == 0, argv
        assert capsys.readouterr().err == "", argv
