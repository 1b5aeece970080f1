"""The Library overview example in README.md runs and gives the values its
comments state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_overview_example_runs():
    text = README.read_text(encoding="utf-8")
    overview = text[text.index("## Library overview") :]
    source = re.search(r"```python\n(.*?)```", overview, re.DOTALL).group(1)
    namespace: dict = {}
    values = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values.append(eval(code, namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    text_value, _, passed, dims = values
    assert text_value == "x^{2}-x-y-1"
    assert passed is True
    assert dims == (64, 64)
    assert len(namespace["reports"]) == 16
    assert all(report.passed for report in namespace["reports"])
