"""Paths, the import guard and the workload table shared by every bench file.

Standard library only: the set-up probe imports this module before it
starts its clock on ``import weylcheb``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("gf-table", "recurrence-table", "verify-sampling", "library-mixed")

ALL_PAIRS = tuple(
    (algebra, kind)
    for algebra in ("A1", "A2", "C2", "G2")
    for kind in ("first", "second")
)

# (algebra, kind) pairs whose root systems and bases a workload builds
# before its first operation; setup_s times exactly this in a fresh process.
SETUP_PAIRS = {
    "gf-table": (("G2", "second"),),
    "recurrence-table": (("G2", "second"),),
    "verify-sampling": (("G2", "second"),),
    "library-mixed": ALL_PAIRS,
}


class BenchSetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def import_weylcheb():
    """Import ``weylcheb`` from this checkout's ``src`` and nowhere else."""
    init = SRC / "weylcheb" / "__init__.py"
    if not init.is_file():
        raise BenchSetupError(f"no weylcheb sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import weylcheb

    if Path(weylcheb.__file__).resolve() != init.resolve():
        raise BenchSetupError(
            f"imported weylcheb from {weylcheb.__file__}, not from {SRC}"
        )
    return weylcheb


def build_pairs(weylcheb, pairs):
    """Root systems and bases for ``pairs``, keyed by (algebra, kind)."""
    bases = {}
    for algebra, kind in pairs:
        rs = weylcheb.build_root_system(weylcheb.AlgebraId(algebra))
        bases[(algebra, kind)] = weylcheb.build_basis(rs, weylcheb.Kind(kind))
    return bases


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def poly_digest(poly) -> str:
    """Digest of an XYPoly's exact terms."""
    return sha256_text(json.dumps(poly.to_json_obj(), sort_keys=True))


def load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def load_benchmark() -> dict:
    with open(BENCHMARK, encoding="utf-8") as handle:
        return json.load(handle)


def metric_units() -> dict:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = load_benchmark()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
