"""Every function and method in the package has a caller there or is
exported, so helpers that only the tests call cannot come back.

The scan parses ``src/weylcheb`` without importing it.  A definition is
used when its name is read somewhere in the package outside its own body:
a module-level function as a bare name or as an attribute
(``output.table_json``), a method as an attribute (``poly.terms()``).  A
module-level function listed in the package's ``__all__`` is public API,
and dunder methods are called by the language.  Names are matched, not
types, so a method counts as used when a same-named method elsewhere is
called.  One method is allowed without a caller, because only the
benchmark's tracer wraps it.
"""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import weylcheb

SRC = Path(weylcheb.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"

# The one definition with no caller in the package: bench/tracing.py wraps
# it, and the entry leaves when the tracer stops doing so.
ALLOWED = ["VariableBasis.monomial_laurent"]


def _reads(node: ast.AST) -> Counter:
    """Names read under ``node``: a bare name as itself, an attribute as
    ``.attr``."""
    reads: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads["." + sub.attr] += 1
    return reads


def _definitions(tree: ast.Module):
    """(qualified name, node, is a method) of each module-level function and
    each method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions):
                    yield f"{node.name}.{item.name}", item, True


def unused_definitions(src: Path = SRC, exported=tuple(weylcheb.__all__)) -> list[str]:
    """Qualified names of the definitions in ``src`` that nothing there
    reads and that are neither dunders nor exported, sorted."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    reads = sum(map(_reads, trees), Counter())
    unused = []
    for tree in trees:
        for qualname, node, is_method in _definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if not is_method and name in exported:
                continue
            keys = ("." + name,) if is_method else (name, "." + name)
            own = _reads(node)
            if not any(reads[key] > own[key] for key in keys):
                unused.append(qualname)
    return sorted(unused)


def test_every_function_and_method_has_a_caller_or_is_exported():
    assert unused_definitions() == ALLOWED


def test_the_scan_finds_a_method_without_a_caller(tmp_path):
    source = (SRC / "polynomialize.py").read_text(encoding="utf-8")
    anchor = "    def as_text(self) -> str:\n"
    assert anchor in source
    helper = (
        "    def total_degree(self) -> int:\n"
        "        return max(map(sum, self._terms), default=0)\n\n"
    )
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name == "polynomialize.py":
            text = text.replace(anchor, helper + anchor)
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    assert unused_definitions(tmp_path) == sorted(ALLOWED + ["XYPoly.total_degree"])


def test_every_allowed_method_is_wrapped_by_the_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = {f"{owner.__name__}.{attr}" for owner, attr, _ in tracer._restore}
    finally:
        tracer.uninstall()
    assert set(ALLOWED) <= patched
