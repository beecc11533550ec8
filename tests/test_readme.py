"""The README's library example runs and prints what it promises."""

import contextlib
import io
import re
from pathlib import Path

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
