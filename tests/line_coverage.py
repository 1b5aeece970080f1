"""Run tier-1 in-process under a line tracer limited to ``src/weylcheb``,
and print every executable line of the package that no test ran.

The executable lines of a module are the line starts of every code object
compiled from its source (``dis.findlinestarts``).  The run fails (exit 1)
on a missed line that ``ALLOWED`` does not list, on an ``ALLOWED`` entry
that tier-1 now runs, so that the list only shrinks, and when tier-1 itself
fails (its exit status).  A guard that protects an invariant is covered by
a test that trips it, never deleted to shorten the list.

Usage:

    python tests/line_coverage.py [pytest arguments]

Needs the standard library and pytest.
"""

from __future__ import annotations

import dis
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import CodeType

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weylcheb"
# (module file name, the line's text, stripped) -> why tier-1 does not run it
# in this process.  At most 10 entries.
ALLOWED: dict[tuple[str, str], str] = {
    ("cli.py", "raise SystemExit(main())"): (
        "the __main__ guard; tests/test_cli.py runs `python -m weylcheb.cli` in child"
        " processes, which the tracer does not see"
    ),
}


def code_lines(code: CodeType) -> set[int]:
    """The lines at which the instructions of ``code`` itself start."""
    return {line for _, line in dis.findlinestarts(code) if line}  # the module's RESUME is line 0


def executable_lines(path: Path) -> set[int]:
    """The line starts of the module's code and of every code object in it."""
    stack, lines = [compile(path.read_text(encoding="utf-8"), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines |= code_lines(code)
        stack += [c for c in code.co_consts if isinstance(c, CodeType)]
    return lines


def traced_run(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit status, and the lines it ran of each module of the
    package, keyed by the file name its code objects carry.

    A code object stops being traced once every line of it has run, which
    ``local`` checks each time a frame of it returns; so a loop that has
    run all its lines costs no more line events."""
    hits: dict[str, set[int]] = defaultdict(set)
    traced: set[str] = set()  # file names of the package's modules
    untraced: set[str] = set()  # every other file name seen
    remaining: dict[CodeType, set[int]] = {}  # a traced code object -> its lines

    def calls(frame, event, arg):
        code = frame.f_code
        name = code.co_filename
        if name in untraced:
            return None
        if name not in traced:
            (traced if Path(os.path.realpath(name)).parent == PACKAGE else untraced).add(name)
            return calls(frame, event, arg)
        if code not in remaining:
            remaining[code] = code_lines(code)
        return local if remaining[code] else None

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        elif event == "return":
            code = frame.f_code
            if remaining[code] and remaining[code] <= hits[code.co_filename]:
                remaining[code] = set()
        return local

    sys.settrace(calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    return int(status), {os.path.realpath(name): hits[name] for name in traced}


def main(argv: list[str]) -> int:
    if len(ALLOWED) > 10:
        raise SystemExit(f"ALLOWED lists {len(ALLOWED)} lines; at most 10 may be allowed")
    os.chdir(ROOT)
    start = time.perf_counter()
    status, hits = traced_run(argv)
    elapsed = time.perf_counter() - start
    missed, allowed, total = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(lines - hits.get(os.path.realpath(path), set())):
            key = (path.name, text[line - 1].strip())
            if key in ALLOWED:
                allowed.add(key)
                print(f"allowed  {path.relative_to(ROOT)}:{line}: {key[1]}  ({ALLOWED[key]})")
            else:
                missed.append(key)
                print(f"MISSED   {path.relative_to(ROOT)}:{line}: {key[1]}")
    stale = sorted(set(ALLOWED) - allowed)
    for name, source in stale:
        print(f"STALE    allowed line now runs or is gone: {name}: {source}")
    print(
        f"{total} executable lines in {PACKAGE.relative_to(ROOT)}: {len(missed)} missed,"
        f" {len(allowed)} allowed, {len(stale)} stale allowances; traced tier-1"
        f" exit {status} in {elapsed:.1f} s"
    )
    return status or (1 if missed or stale else 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
