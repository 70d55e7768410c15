"""README.md's Python examples run as written: every fenced ``python``
block, in order, in one namespace, as a reader pastes them."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_python_examples_run():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 4
    namespace = {"__name__": "readme"}
    printed = []
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        printed.append(out.getvalue())
    # the corrector-space example prints what its comment says
    (space_out,) = [out for block, out in zip(blocks, printed)
                    if "space.C.shape" in block]
    assert space_out == "96 168 (5, 168)\n"
