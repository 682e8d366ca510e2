"""Doctest-style gate: every README and API reference snippet must run.

The README and ``docs/API.md`` are what users copy-paste from; API drift
there is worse than in any docstring.  This test extracts every fenced
``python`` code block from both files and executes each in a fresh
namespace (with the ``src`` layout on ``sys.path``, as the README's own
instructions establish), so every block must stand alone.  Stdout is
swallowed; exceptions fail the test with the offending block.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
API_DOC = ROOT / "docs" / "API.md"

_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: pathlib.Path) -> list:
    return _FENCE.findall(path.read_text())


_SNIPPETS = [
    pytest.param(path.name, index, block, id=f"{path.name}-block{index}")
    for path in (README, API_DOC)
    for index, block in enumerate(_python_blocks(path))
]


def test_readme_has_python_snippets():
    assert len(_python_blocks(README)) >= 2, "README lost its Python quickstart blocks"
    assert _python_blocks(API_DOC), "docs/API.md lost its Python examples"


@pytest.mark.parametrize("doc,index,block", _SNIPPETS)
def test_readme_snippet_runs(doc, index, block):
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    namespace: dict = {"__name__": "__readme__"}
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            exec(compile(block, f"{doc}[python block {index}]", "exec"), namespace)
    except Exception as exc:  # pragma: no cover - failure reporting
        pytest.fail(
            f"{doc} python block {index} raised {type(exc).__name__}: {exc}\n"
            f"---\n{block}"
        )
    # snippets that print must have printed something real
    if "print(" in block:
        assert stdout.getvalue().strip(), f"{doc} block {index} printed nothing"
