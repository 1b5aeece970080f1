"""The traced benchmark run wraps package names from outside the package.

Every name it wraps must exist, so that deleting one breaks this test
rather than ``bench/run.py --trace 1``, and uninstalling must put each
original back.
"""

from __future__ import annotations

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
