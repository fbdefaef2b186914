"""One round of one workload in a fresh process (started by run.py).

Prints one JSON object: set-up time, the measured window, CPU time,
peak RSS, the latency median and p99, the checker's findings and, in
the traced modes, the per-layer metrics.  ``--mode setup`` stops where
the first request would be submitted and reports the set-up time only.

    python3 perfbench/round.py --workload sim-wan --seed 1 --round 0 \\
        --mode plain|setup|profile|spans --work-dir DIR
"""

import time

#: Child start, taken before anything of the program is imported.
CHILD_START = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

from workloads import (WORKLOADS, NoHooks, SetupDone, SetupProbe,  # noqa: E402
                       run_round, use_repo_source)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("plain", "setup", "profile", "spans"))
    parser.add_argument("--work-dir", required=True)
    args = parser.parse_args()
    use_repo_source()
    import check
    import layers

    workload = WORKLOADS[args.workload]
    hooks = {"plain": NoHooks, "setup": SetupProbe,
             "profile": layers.ProfileHooks,
             "spans": layers.SpanHooks}[args.mode]()
    try:
        outcomes = run_round(workload, args.seed, args.round, hooks,
                             args.work_dir)
    except SetupDone as done:
        print(json.dumps({"setup_s": done.args[0] - CHILD_START,
                          "problems": []}))
        return 0
    problems = [p for o in outcomes for p in check.check(o)]
    latencies = [d[2] for o in outcomes for d in o.deliveries]
    percentiles = statistics.quantiles(latencies, n=100) \
        if len(latencies) > 1 else [float("nan")] * 99
    result = {
        "setup_s": outcomes[0].first_submit - CHILD_START,
        "window_s": sum(o.window_s for o in outcomes),
        "cpu_s": sum(o.cpu_s for o in outcomes),
        "delivered": sum(len(o.deliveries) for o in outcomes),
        "failed": workload.requests - sum(check.delivered_ok(o)
                                          for o in outcomes),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": len(latencies),
        "p50_ms": percentiles[49],
        "p99_ms": percentiles[98],
        "problems": problems,
    }
    if args.mode != "plain":
        result["layers"], result["self_ms_per_req"] = \
            hooks.metrics(outcomes)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
