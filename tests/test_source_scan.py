"""Every function and method in the package has a caller there or is
exported, every exported function has a reader outside the package, and
every default of an internal function is used, so helpers and parameters
that only the tests need cannot come back.

The scan parses ``src/weylcheb`` without importing it.  A definition is
used when its name is read somewhere in the package outside its own body:
a module-level function as a bare name or as an attribute
(``output.table_json``), a method as an attribute (``poly.terms()``).  A
module-level function listed in the package's ``__all__`` is public API,
and dunder methods are called by the language.  Names are matched, not
types, so a method counts as used when a same-named method elsewhere is
called.  One method is allowed without a caller, because only the
benchmark's tracer wraps it.

An exported function is read by a user of the package: ``cli.py``, the
benchmark (which also names what it wraps as strings) or a code span of
``README.md`` that parses as Python.  Types, exceptions and constants are
exempt.  A defaulted parameter of a function that is not exported, or of
a method of a class that is not, is omitted by at least one call in the
package: a default that every call overrides restates the callers.  A
constructor is called by its class's name or a subclass's.  Both scans
read source only.
"""

from __future__ import annotations

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import weylcheb

SRC = Path(weylcheb.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
README = ROOT / "README.md"

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


def _copy_src(tmp_path: Path, edits: dict[str, tuple[str, str]]) -> Path:
    """``src`` copied to ``tmp_path`` with one (anchor, replacement) per file."""
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        if path.name in edits:
            anchor, replacement = edits[path.name]
            assert anchor in text, anchor
            text = text.replace(anchor, replacement)
        (tmp_path / path.name).write_text(text, encoding="utf-8")
    return tmp_path


def test_the_scan_finds_a_method_without_a_caller(tmp_path):
    anchor = "    def as_text(self) -> str:\n"
    helper = (
        "    def total_degree(self) -> int:\n"
        "        return max(map(sum, self._terms), default=0)\n\n"
    )
    src = _copy_src(tmp_path, {"polynomialize.py": (anchor, helper + anchor)})
    assert unused_definitions(src) == sorted(ALLOWED + ["XYPoly.total_degree"])


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


def _exported(src: Path) -> set[str]:
    """The names in ``src/__init__.py``'s ``__all__``, read from its source."""
    for node in ast.parse((src / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("no __all__")


def _user_reads(node: ast.AST) -> set[str]:
    """Names read under ``node``, bare or as attributes, imported, or given
    as an identifier string (``patch(genfunc, "orbit_sum", ...)``)."""
    reads = {name.lstrip(".") for name in _reads(node)}
    for sub in ast.walk(node):
        if isinstance(sub, ast.alias):
            reads.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            reads.add(sub.value)
    return reads


def _readme_code(text: str) -> list[ast.AST]:
    """Every ``python`` block and every inline code span of ``text`` that
    parses as Python."""
    fence = re.compile(r"^```(\w*)\n(.*?)^```", re.DOTALL | re.MULTILINE)
    codes = [body for lang, body in fence.findall(text) if lang == "python"]
    codes += re.findall(r"`([^`\n]+)`", fence.sub("", text))
    trees = []
    for code in codes:
        try:
            trees.append(ast.parse(code))
        except SyntaxError:
            continue
    return trees


def unread_exports(src: Path = SRC, bench: Path = BENCH, readme: Path = README) -> list[str]:
    """The exported module-level functions of ``src`` that neither its
    ``cli.py``, nor ``bench/*.py``, nor the README's code reads, sorted."""
    paths = [src / "cli.py", *sorted(bench.glob("*.py"))]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    trees += _readme_code(readme.read_text(encoding="utf-8"))
    reads = set().union(*map(_user_reads, trees))
    functions = {
        node.name
        for path in src.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    return sorted((functions & _exported(src)) - reads)


def _defaults(node: ast.FunctionDef, is_method: bool):
    """(name, position or None if keyword-only) of each defaulted parameter;
    a method's position does not count its first parameter (the package
    has no static method with a default)."""
    args = node.args
    positional = (args.posonlyargs + args.args)[is_method:]
    first = len(positional) - len(args.defaults)
    yield from ((arg.arg, i) for i, arg in enumerate(positional) if i >= first)
    yield from (
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )


def _omits(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` surely leaves the parameter to its default."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return False
    if any(k.arg in (None, name) for k in call.keywords):
        return False
    return position is None or len(call.args) <= position


def defaults_never_omitted(src: Path = SRC) -> list[str]:
    """``qualname: parameter`` for each defaulted parameter of a function
    of ``src`` that is not exported (or of a method of a class that is
    not) that every call in ``src`` passes, sorted."""
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.glob("*.py"))]
    exported = _exported(src)
    calls: dict[str, list[ast.Call]] = {}
    for sub in (sub for tree in trees for sub in ast.walk(tree)):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            calls.setdefault(name, []).append(sub)
    classes = [node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)]
    subclasses = {c.name: {c.name} for c in classes}
    for c in classes:  # one level: each class under the classes it names as bases
        for base in c.bases:
            if isinstance(base, ast.Name) and base.id in subclasses:
                subclasses[base.id].add(c.name)
    flagged = []
    for tree in trees:
        for qualname, node, is_method in _definitions(tree):
            owner = qualname.split(".")[0]
            if (owner if is_method else node.name) in exported:
                continue
            names = subclasses[owner] if node.name == "__init__" else {node.name}
            mine = [call for name in names for call in calls.get(name, [])]
            for param, position in _defaults(node, is_method):
                if not any(_omits(call, param, position) for call in mine):
                    flagged.append(f"{qualname}: {param}")
    return sorted(flagged)


def test_every_exported_function_has_a_reader_outside_the_package():
    assert unread_exports() == []


def test_every_default_of_an_internal_function_is_used():
    assert defaults_never_omitted() == []


def test_the_scans_find_an_unread_export_and_an_unused_default(tmp_path):
    """An exported helper that only the tests call, and defaults that
    every call overrides, in a function and in a constructor."""
    exported = '    "closed_form_gf",\n'
    src = _copy_src(tmp_path, {
        "__init__.py": (exported, exported + '    "diagonal_exp_matrix",\n'),
        "rootsystem.py": ("top: int, low: int)", "top: int, low: int = -1)"),
        "orbit.py": ("index: DominantIndex)", "index: DominantIndex | None = None)"),
    })
    assert unread_exports(src) == ["diagonal_exp_matrix"]
    assert defaults_never_omitted(src) == ["RacahTable.__init__: index", "dominant_sweep: low"]
