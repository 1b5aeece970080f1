"""Benchmark runner for weylcheb.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src``.  One process, one thread, one caller: passes of the workload run
back to back until ``--seconds`` have gone by (at least three), and every
answer is checked.  A summary goes to stderr; the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus the tracing overhead; the
spans of the first traced pass are written to ``bench/out/``.

Exit codes: 0 all answers correct, 1 some operation failed or mismatched
its oracle, 2 the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import common

MIN_SETUP_PROBES = 7
MIN_PASSES = 3
# Passes stop starting once a run is this old, so it ends well within
# 180 seconds even if a pass gets much slower.
HARD_LIMIT_S = 90.0


class Tally:
    """Operations attempted and failed over a whole run, with the first
    problems found."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []

    def add(self, ops: int, failed: int, problems) -> None:
        self.attempted += ops
        self.failed += failed
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])


def _probe(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "probe.py"), *args],
        cwd=common.ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(bench, seconds: float, tally: Tally, tracer=None, between=None):
    """Passes until ``seconds`` are used, after one untimed warm-up pass.

    With a ``tracer``, every second pass runs under it.
    ``between`` runs after each timed pass, outside it.
    Returns (untraced clocks, traced (clock, metrics) pairs, first spans).
    """
    import workloads

    def one_pass(traced: bool, pass_id: int = 0):
        bench.prepare()
        clock = workloads.Clock()
        if traced:
            tracer.reset(pass_id)
            tracer.install()
        try:
            bench.run_pass(clock)
        finally:
            if traced:
                tracer.uninstall()
        tally.add(clock.ops, clock.failed, clock.problems)
        return clock

    start = time.perf_counter()
    one_pass(False)
    plain, traced, spans = [], [], None
    deadline = start + seconds
    i = 0
    while True:
        now = time.perf_counter()
        done = len(plain) + len(traced)
        kinds = 1 if tracer is None else 2
        if done >= kinds and (
            (now >= deadline and done >= MIN_PASSES * kinds) or now - start > HARD_LIMIT_S
        ):
            break
        is_traced = tracer is not None and i % 2 == 1
        clock = one_pass(is_traced, i)
        if is_traced:
            traced.append((clock, tracer.pass_metrics()))
            if spans is None:
                spans = tracer.export()
        else:
            plain.append(clock)
        if between is not None:
            between()
        i += 1
    return plain, traced, spans


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    import workloads

    # setup_s is the median over fresh processes, one after each pass so
    # that they sample the whole run; the first probe, which may compile
    # bytecode, is not counted.
    _probe("setup", workload)
    setups: list[float] = []

    def probe_setup() -> None:
        setups.append(_probe("setup", workload)["setup_s"])

    probe = _probe("pass", workload, str(seed))
    tally.add(probe["ops"], probe["failed"], probe["problems"])
    bench = workloads.make(workload, seed, common.load_digests())
    plain, _, _ = run_passes(bench, seconds, tally, between=probe_setup)
    while len(setups) < MIN_SETUP_PROBES:
        probe_setup()
    latencies = [ms for clock in plain for ms in clock.query_ms]
    walls = [c.wall for c in plain]
    tally.notes += [
        f"passes {len(plain)}, queries {len(latencies)}",
        f"median pass wall {statistics.median(walls):.6g} s",
        f"query_p50_ms {statistics.median(latencies):.6g} ms",
    ]
    return {
        "wall_s": p90(walls),
        "cpu_s": p90([c.cpu for c in plain]),
        "peak_rss_mib": probe["peak_rss_mib"],
        "setup_s": statistics.median(setups),
        "query_p90_ms": p90(latencies),
    }


def p90(values: list[float]) -> float:
    """90th percentile, interpolated between the samples around it.

    The timed metrics report this rather than the median.  On a shared host
    whose speed flips between a contended and an uncontended regime for
    tens of seconds at a time, the median of a run follows whichever regime
    filled most of it, while the contended pass time is steady.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def traced_setup(tracer, workload: str) -> dict:
    """Set-up under the tracer, after clearing the root-system cache."""
    import weylcheb
    from weylcheb import polynomialize, rootsystem

    pairs = common.SETUP_PAIRS[workload]
    samples = []
    for _ in range(5):
        rootsystem.build_root_system.cache_clear()
        tracer.reset()
        tracer.install()
        try:
            systems = {}
            for algebra in sorted({a for a, _ in pairs}):
                with tracer.span("rootsystem.build_root_system"):
                    systems[algebra] = rootsystem.build_root_system(
                        weylcheb.AlgebraId(algebra)
                    )
            for algebra, kind in pairs:
                polynomialize.build_basis(systems[algebra], weylcheb.Kind(kind))
        finally:
            tracer.uninstall()
        selfs = tracer.self_times()
        samples.append(
            {
                "rootsystem.build_s": selfs["rootsystem.build_root_system"],
                "orbit.variable_laurents_s": selfs["orbit.variable_laurents"],
            }
        )
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def per_layer(workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, bool]:
    """Per-layer metrics and whether every count repeated exactly."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    bench = workloads.make(workload, seed, common.load_digests())
    metrics = traced_setup(tracer, workload)
    plain, traced, spans = run_passes(bench, seconds, tally, tracer=tracer)
    layer = [m for _, m in traced]
    steady = True
    for name in layer[0]:
        if name in tracing.TIME_METRICS:
            metrics[name] = statistics.median(m[name] for m in layer)
            continue
        values = {m[name] for m in layer}
        if len(values) != 1:
            steady = False
            tally.problems.append(f"{name} did not repeat across traced passes: {sorted(values)}")
        metrics[name] = layer[0][name]
    untraced_wall = statistics.median(c.wall for c in plain)
    traced_wall = statistics.median(c.wall for c, _ in traced)
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall - 1
    common.OUT_DIR.mkdir(exist_ok=True)
    with open(common.OUT_DIR / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    return metrics, steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        common.import_weylcheb()
        common.load_digests()
    except (common.BenchSetupError, OSError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2

    tally = Tally()
    steady = True
    if args.trace:
        values, steady = per_layer(args.workload, args.seed, args.seconds, tally)
    else:
        values = end_to_end(args.workload, args.seed, args.seconds, tally)
    units = common.metric_units()
    correct = tally.failed == 0 and steady
    failed_ratio = tally.failed / tally.attempted
    sys.stderr.write(f"{args.workload} seed={args.seed} trace={args.trace}\n")
    for name, value in values.items():
        sys.stderr.write(f"  {name:36s} {value:.6g} {units[name]}\n")
    sys.stderr.write(f"  {'failed_ratio':36s} {failed_ratio:.6g} ratio"
                     f" ({tally.failed} of {tally.attempted} operations)\n")
    for note in tally.notes:
        sys.stderr.write(f"  {note}\n")
    for problem in tally.problems:
        sys.stderr.write(f"  problem: {problem}\n")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
