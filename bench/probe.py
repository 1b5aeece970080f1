"""Fresh-process probes for the runner.

    python3 bench/probe.py setup WORKLOAD
        Times ``import weylcheb`` plus building the workload's root systems
        and bases, and prints {"setup_s": ...}.
    python3 bench/probe.py pass WORKLOAD SEED
        Runs one checked pass of the workload and prints
        {"peak_rss_mib": ..., "ops": ..., "failed": ..., "problems": [...]}.
"""

from __future__ import annotations

import json
import resource
import sys
import time

import common


def probe_setup(workload: str) -> dict:
    start = time.perf_counter()
    weylcheb = common.import_weylcheb()
    common.build_pairs(weylcheb, common.SETUP_PAIRS[workload])
    return {"setup_s": time.perf_counter() - start}


def probe_pass(workload: str, seed: int) -> dict:
    common.import_weylcheb()
    import workloads

    bench = workloads.make(workload, seed, common.load_digests(), cross_check=False)
    bench.prepare()
    clock = workloads.Clock()
    bench.run_pass(clock)
    return {
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": clock.ops,
        "failed": clock.failed,
        "problems": clock.problems,
    }


def main(argv: list[str]) -> int:
    try:
        if argv[0] == "setup":
            result = probe_setup(argv[1])
        else:
            result = probe_pass(argv[1], int(argv[2]))
    except common.BenchSetupError as exc:
        sys.stderr.write(f"probe: {exc}\n")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
