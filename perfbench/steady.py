"""Steadiness: run workloads repeatedly, each time with another seed, and
print every end-to-end metric's median and quartiles.

    python3 perfbench/steady.py --runs 10 --seconds 20 \\
        [--workload sim-wan ...] [--first-seed 1]

The spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``), the figure
the bounds in BENCHMARK.json are set against.  Runs happen one after
the other, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from workloads import REPO, WORKLOADS


def bounds() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    limits = bounds()
    for name in args.workload or list(WORKLOADS):
        values = {}
        failed_shares = set()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(REPO, "perfbench", "run.py"),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=REPO, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: INCORRECT\n{proc.stderr}")
            failed_shares.add(result["failed"] / result["attempted"])
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"{name}: {args.runs} runs of {args.seconds:g} s, seeds "
              f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
              f"failed share {sorted(failed_shares)}")
        print(f"  {'metric':16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>7} {'bound':>6}")
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            print(f"  {metric:16} {median:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.1%} {limits.get(metric, 0):6.0%}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
