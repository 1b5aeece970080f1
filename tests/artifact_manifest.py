"""Byte-identity manifest of the command-line artifacts.

    python3 tests/artifact_manifest.py --check   # name every changed artifact
    python3 tests/artifact_manifest.py --write   # record the current tree

Each entry is one ``weylcheb`` command line, run in-process through
``cli.main``, keyed by its arguments.  It records the SHA-256 of stdout,
the SHA-256 of stderr and the exit code.  The commands are ``table``,
``recurrence-table`` and ``crosscheck`` at 5x5, ``genfunc``, and ``verify``
at 2x2 with 30 samples and seed 7, each in every format on every (algebra,
kind) pair, where the unsupported pairs record their usage error; then G2
``recurrence-table`` 16x16, G2 ``table --kind first`` 4x4 and three larger
``verify`` runs (G2 4x4 with 300 samples, C2 6x5 with 200 and A1 0..9 with
150 at a seed that skips a singular sample), whose boxes share chain
extents across many indices.

argparse wraps its usage text to the terminal width, so every run sets
``COLUMNS`` to one fixed value.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "data" / "artifact_hashes.json"
COLUMNS = "80"

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from weylcheb import cli  # noqa: E402


def commands() -> list[list[str]]:
    """Every command line the manifest records, in a fixed order."""
    box = ["--max-m", "5", "--max-n", "5"]
    verify_box = ["--max-m", "2", "--max-n", "2", "--samples", "30", "--seed", "7"]
    out = []
    for algebra in ("a1", "a2", "c2", "g2"):
        for kind in ("first", "second"):
            for fmt in ("json", "plain", "latex"):
                tail = ["--algebra", algebra, "--kind", kind, "--format", fmt]
                out += [
                    ["table", *tail, *box],
                    ["recurrence-table", *tail, *box],
                    ["crosscheck", *tail, *box],
                    ["genfunc", *tail],
                    ["verify", *tail, *verify_box],
                ]
    g2 = ["--algebra", "g2", "--format", "json"]
    out.append(["recurrence-table", *g2, "--kind", "second", "--max-m", "16", "--max-n", "16"])
    out.append(["table", *g2, "--kind", "first", "--max-m", "4", "--max-n", "4"])
    out += [
        ["verify", "--max-m", "4", "--max-n", "4", "--samples", "300", "--seed", "7"],
        ["verify", "--algebra", "c2", "--max-m", "6", "--max-n", "5", "--samples", "200", "--seed", "3"],
        ["verify", "--algebra", "a1", "--max-m", "9", "--samples", "150", "--seed", "585832"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process ``cli.main`` call.

    An exception that escapes ends as it would end the command: its
    traceback on stderr and exit code 1, so the other entries still run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def entry(code: int, stdout: str, stderr: str) -> dict:
    def digest(text: str) -> str:
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    return {"exit": code, "stderr": digest(stderr), "stdout": digest(stdout)}


def load() -> dict:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def changed_keys(recorded: dict, current: dict) -> list[str]:
    """Keys whose entry differs, or that only one side has, sorted."""
    return sorted(k for k in recorded.keys() | current.keys() if recorded.get(k) != current.get(k))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record the current tree")
    mode.add_argument("--check", action="store_true", help="compare with the record")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = COLUMNS
    current = {" ".join(cmd): entry(*run(cmd)) for cmd in commands()}
    if args.write:
        MANIFEST.write_text(json.dumps(current, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {len(current)} entries to {MANIFEST}")
        return 0
    changed = changed_keys(load(), current)
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(current)} artifacts changed", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    raise SystemExit(main())
