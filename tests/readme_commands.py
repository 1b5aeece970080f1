"""Run every ``weylcheb`` line of the "Command line" block in README.md.

    python3 tests/readme_commands.py

Each line runs as ``python -m weylcheb.cli`` with the package in ``src/``
first on the path (the console script calls the same ``main``), with its
output discarded.  The script exits 1 if any line exits nonzero or if the
block holds no ``weylcheb`` line.  Standard library only.
"""

from __future__ import annotations

import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def command_lines(readme: str) -> list[str]:
    """The ``weylcheb`` lines of the first sh block after "## Command line"."""
    section = readme[readme.index("## Command line") :]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.startswith("weylcheb ")]


def main() -> int:
    lines = command_lines((ROOT / "README.md").read_text(encoding="utf-8"))
    if not lines:
        print("README.md: no weylcheb line in the Command line block", file=sys.stderr)
        return 1
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    failed = 0
    for line in lines:
        argv = [sys.executable, "-m", "weylcheb.cli", *shlex.split(line)[1:]]
        start = time.perf_counter()
        result = subprocess.run(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True
        )
        print(f"exit {result.returncode} in {time.perf_counter() - start:.1f} s: {line}")
        if result.returncode:
            failed += 1
            sys.stderr.write(result.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
