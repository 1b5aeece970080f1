"""Run-to-run steadiness of the benchmark.

    python3 bench/steadiness.py --workload gf-table --runs 10 --seconds 25
    python3 bench/steadiness.py --workload gf-table --trace-check

The first form runs the untraced benchmark once per seed (seeds
``--first-seed``, ``--first-seed`` + 1, ...) and prints, for every
end-to-end metric, the median of the runs and the distance between their
first and third quartiles as a share of that median, next to the bound
in BENCHMARK.json.  The second runs the traced benchmark twice on one seed,
checks that every exact count repeats, and prints both readings of every
per-layer timing.  Results are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

COUNTS_THAT_MUST_REPEAT = (
    "polynomialize.reduce_leaders",
    "laurent.quotient_terms",
    "polynomialize.monomial_requests",
    "recurrence.normalize_index_calls",
    "output.bytes",
    "numeric.samples",
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=common.ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spreads(workload: str, runs: int, first_seed: int, seconds: int) -> dict:
    bounds = {m["name"]: m["bound"] for m in common.load_benchmark()["end_to_end"]}
    readings = []
    for seed in range(first_seed, first_seed + runs):
        readings.append(run_once(workload, seed, seconds, 0))
        print(f"{workload} seed {seed}: "
              + " ".join(f"{k}={v:.5g}" for k, v in readings[-1].items()), flush=True)
    report = {}
    for name in readings[0]:
        values = [r[name] for r in readings]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / q2
        report[name] = {"median": q2, "spread": spread, "bound": bounds[name], "values": values}
        flag = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{workload:17s} {name:14s} median {q2:11.5g}  spread {spread:6.3f}"
              f"  bound {bounds[name]:.2f}  {flag}")
    return report


def trace_check(workload: str, seed: int, seconds: int) -> dict:
    first = run_once(workload, seed, seconds, 1)
    second = run_once(workload, seed, seconds, 1)
    repeated = True
    for name in COUNTS_THAT_MUST_REPEAT:
        same = first[name] == second[name]
        repeated &= same
        print(f"{workload:17s} {name:36s} {first[name]!r:>12} {second[name]!r:>12}"
              f"  {'same' if same else 'DIFFERENT'}")
    for name, value in first.items():
        if name.endswith("_s") or name == "trace.overhead_ratio":
            print(f"{workload:17s} {name:36s} {value:12.5g} {second[name]:12.5g}")
    return {"repeated": repeated, "runs": [first, second]}


def main() -> int:
    parser = argparse.ArgumentParser(description="run-to-run steadiness")
    parser.add_argument("--workload", action="append", choices=common.WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args()
    seconds = args.seconds or common.load_benchmark()["run_seconds"]
    ok = True
    out = {}
    for workload in args.workload or common.WORKLOADS:
        if args.trace_check:
            out[workload] = trace_check(workload, args.first_seed, seconds)
            ok &= out[workload]["repeated"]
        else:
            out[workload] = spreads(workload, args.runs, args.first_seed, seconds)
    common.OUT_DIR.mkdir(exist_ok=True)
    name = "trace-check" if args.trace_check else "spreads"
    with open(common.OUT_DIR / f"steadiness-{name}.json", "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
