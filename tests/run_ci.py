"""Run the CI workflow's steps offline, once per interpreter.

Reads ``.github/workflows/tests.yml`` and runs every ``run:`` step except
"Install", in order, with ``bash -e``, in a temporary copy of the
repository.  Each step sees ``PYTHONPATH=src`` and a temporary ``bin/`` at
the front of ``PATH``, in which ``python`` and ``python3`` are the chosen
interpreter and ``weylcheb`` runs ``python -m weylcheb.cli``: what
``pip install -e .`` gives the workflow.

A step that needs a module the interpreter lacks (``python -m pytest``
without pytest, or a script whose top-level imports cannot be found) is
reported as skipped, with the reason.  The run fails when a step fails,
and when a step was skipped on every interpreter.

Usage:

    python tests/run_ci.py [--python PATH] ...

``--python`` may be repeated; without it the interpreter running this
script is used.  Needs only the standard library and ``yaml``.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = Path(".github/workflows/tests.yml")
SKIPPED_STEPS = {"Install"}
# What a copy of the repository does not need: history and caches.
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")
_MODULE_RUN = re.compile(r"\bpython3?\s+-m\s+([\w.]+)")
_SCRIPT_RUN = re.compile(r"\bpython3?\s+([\w./-]+\.py)\b")
_FIND_SPECS = (
    "import importlib.util, sys\n"
    "print(' '.join(m for m in sys.argv[1:] if importlib.util.find_spec(m) is None))"
)


def workflow_steps(root: Path) -> list[tuple[str, str]]:
    """(name, script) of every ``run:`` step to run, in workflow order."""
    workflow = yaml.safe_load((root / WORKFLOW).read_text(encoding="utf-8"))
    steps = []
    for job in workflow["jobs"].values():
        for step in job["steps"]:
            if "run" in step and step.get("name") not in SKIPPED_STEPS:
                steps.append((step.get("name") or step["run"].splitlines()[0], step["run"]))
    return steps


def needed_modules(script: str, copy: Path) -> tuple[list[str], list[str]]:
    """The top-level modules a step runs with ``-m`` or imports at the top
    of a script it runs, and the directories of those scripts."""
    modules = [m.split(".")[0] for m in _MODULE_RUN.findall(script)]
    dirs = []
    for name in _SCRIPT_RUN.findall(script):
        path = copy / name
        if not path.is_file():
            continue
        dirs.append(str(path.parent))
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                modules += [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level and node.module != "__future__":
                modules.append(node.module.split(".")[0])
    return sorted(set(modules)), dirs


def missing_modules(script: str, copy: Path, env: dict) -> list[str]:
    modules, dirs = needed_modules(script, copy)
    if not modules:
        return []
    find_env = dict(env, PYTHONPATH=os.pathsep.join([env["PYTHONPATH"], *dirs]))
    found = subprocess.run(
        ["python", "-c", _FIND_SPECS, *modules],
        cwd=copy, env=find_env, capture_output=True, text=True, check=True,
    )
    return found.stdout.split()


def make_bin(bin_dir: Path, python: str) -> None:
    """``python``, ``python3`` and ``weylcheb`` on the step's PATH."""
    bin_dir.mkdir()
    for name, body in (
        ("python", f'exec "{python}" "$@"'),
        ("python3", f'exec "{python}" "$@"'),
        ("weylcheb", 'exec python -m weylcheb.cli "$@"'),
    ):
        path = bin_dir / name
        path.write_text(f"#!/bin/sh\n{body}\n", encoding="utf-8")
        path.chmod(0o755)


def run_interpreter(python: str, steps: list[tuple[str, str]]) -> list[tuple[str, str, str]]:
    """Run every step under ``python`` in a fresh copy; one (name, status,
    detail) per step."""
    results = []
    resolved = shutil.which(python)
    if resolved is None:
        raise SystemExit(f"no interpreter {python!r}")
    python = os.path.abspath(resolved)  # the bin/ wrappers must not find themselves
    with tempfile.TemporaryDirectory(prefix="run_ci-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        make_bin(Path(tmp) / "bin", python)
        env = dict(
            os.environ,
            PATH=os.pathsep.join([str(Path(tmp) / "bin"), os.environ.get("PATH", "")]),
            PYTHONPATH=str(copy / "src"),
        )
        version = subprocess.run(
            ["python", "-c", "import platform; print(platform.python_version())"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        for name, script in steps:
            label = f"{version:<8} {name}"
            missing = missing_modules(script, copy, env)
            if missing:
                results.append((name, "skipped", f"no module {', '.join(missing)}"))
                print(f"skipped  {label}: no module {', '.join(missing)}", flush=True)
                continue
            start = time.perf_counter()
            proc = subprocess.run(
                ["bash", "-e", "-c", script], cwd=copy, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            elapsed = time.perf_counter() - start
            status = "passed" if proc.returncode == 0 else "failed"
            results.append((name, status, version))
            print(f"{status:<8} {label} ({elapsed:.1f} s)", flush=True)
            if proc.returncode:
                tail = proc.stdout.splitlines()[-20:]
                print("\n".join(f"    | {line}" for line in tail), flush=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--python", action="append", metavar="PATH",
        help="an interpreter to run the steps with; repeatable (default: this one)",
    )
    args = parser.parse_args(argv)
    steps = workflow_steps(ROOT)
    outcomes: dict[str, list[tuple[str, str]]] = {name: [] for name, _ in steps}
    for python in args.python or [sys.executable]:
        for name, status, detail in run_interpreter(python, steps):
            outcomes[name].append((status, detail))
    problems = [
        f"step {name!r} failed on {detail}"
        for name, runs in outcomes.items() for status, detail in runs if status == "failed"
    ]
    problems += [
        f"step {name!r} was skipped on every interpreter"
        for name, runs in outcomes.items() if all(status == "skipped" for status, _ in runs)
    ]
    for problem in problems:
        print(f"FAILED: {problem}")
    if not problems:
        print(f"all {len(steps)} steps passed or were skipped with a reason")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
