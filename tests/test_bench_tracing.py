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


def test_traced_gf_table_pass_counts_the_work(monkeypatch):
    """One gf-table pass under the tracer does the work the benchmark's
    per-layer counters report: leaders cleared by ``reduce``, quotient
    terms of ``exact_divide`` and artifact bytes."""
    monkeypatch.syspath_prepend(str(BENCH))
    common = importlib.import_module("common")
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    bench = workloads.make("gf-table", 7, common.load_digests(), cross_check=False)
    clock = workloads.Clock()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bench.run_pass(clock)
    finally:
        tracer.uninstall()
    assert clock.failed == 0, clock.problems
    metrics = tracer.pass_metrics()
    counts = {
        name: metrics[name]
        for name in ("polynomialize.reduce_leaders", "laurent.quotient_terms", "output.bytes")
    }
    assert counts == {
        "polynomialize.reduce_leaders": 1368,
        "laurent.quotient_terms": 13867,
        "output.bytes": 152439,
    }
