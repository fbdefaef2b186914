"""The repo's benchmark: runs one workload for a while and prints its
metrics as one JSON line.

    python3 perfbench/run.py --workload sim-wan --seed 1 --seconds 25 \\
        --trace 0

Run it from the root of a checkout.  Each round is a fresh child process
(``round.py``) with a fixed ``PYTHONHASHSEED``, a fixed amount of work
and a fresh data directory; rounds repeat until ``--seconds`` have
passed, and each metric is the median over the run's rounds.  A few
set-up-only rounds come first.  Every round is checked (``check.py``);
a round that fails the check makes the run incorrect.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports
the per-layer metrics instead: one untraced round, one round under the
program's causal tracer, then rounds under cProfile; it also writes
``.perfbench/layers-<workload>.json`` with every layer's self time and
the profiler's overhead against the untraced round.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

from layers import METRICS as PER_LAYER
from workloads import REPO, WORK_DIR, WORKLOADS

#: Every end-to-end metric and its unit, in BENCHMARK.json order.
END_TO_END = {
    "req_per_s": "1/s",
    "cpu_ms_per_req": "ms",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: The run must end within this many seconds of starting.
HARD_LIMIT_S = 170.0
#: Set-up-only rounds before the measured ones, so that even a run of
#: few long rounds has a median of several set-up times.
SETUP_PROBES = 4


def run_child(workload: str, seed: int, round_index: int, mode: str,
              started: float) -> Dict[str, Any]:
    """One round in a fresh process; its JSON result, or a failed
    result if the child died or overran the run's time limit."""
    work = os.path.join(WORK_DIR, f"run-{os.getpid()}",
                        f"round-{round_index}-{mode}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    command = [sys.executable, os.path.join(REPO, "perfbench", "round.py"),
               "--workload", workload, "--seed", str(seed),
               "--round", str(round_index), "--mode", mode,
               "--work-dir", work]
    budget = max(1.0, HARD_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(command, cwd=REPO, env=env,
                              capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        return {"problems": [f"round {round_index} ({mode}) overran the "
                             f"run's {HARD_LIMIT_S:.0f} s limit"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"problems": [f"round {round_index} ({mode}) exited "
                             f"{proc.returncode}: {' | '.join(tail)}"]}
    return json.loads(lines[-1])


def end_to_end(results: List[Dict[str, Any]]) -> Dict[str, float]:
    """Medians over the rounds; set-up over the rounds and probes."""
    rounds = [r for r in results if r["mode"] != "setup"]
    return {
        "req_per_s": statistics.median(
            r["delivered"] / r["window_s"] for r in rounds),
        "cpu_ms_per_req": statistics.median(
            r["cpu_s"] * 1000.0 / r["delivered"] for r in rounds),
        "p50_ms": statistics.median(r["p50_ms"] for r in rounds),
        "p99_ms": statistics.median(r["p99_ms"] for r in rounds),
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(REPO, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source at {REPO}/src/repro; run "
              f"from the root of a full checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    # Fixed modes first, then the repeated mode until time is up.
    if args.trace:
        plan, repeat = ["plain", "spans"], "profile"
    else:
        plan, repeat = ["setup"] * SETUP_PROBES, "plain"
    results: List[Dict[str, Any]] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        if len(results) > len(plan) and elapsed >= args.seconds:
            break
        if elapsed + 1.5 * longest > HARD_LIMIT_S:
            break
        mode = plan[len(results)] if len(results) < len(plan) else repeat
        # Untraced rounds each get fresh inputs; traced rounds all
        # repeat round 0, so their counts repeat exactly on the sim.
        index = 0 if args.trace else sum(r["mode"] == "plain"
                                         for r in results)
        t0 = time.monotonic()
        result = run_child(args.workload, args.seed, index, mode, started)
        if mode != "setup":
            longest = max(longest, time.monotonic() - t0)
        result["mode"] = mode
        results.append(result)
        if result["problems"]:
            break

    work = [r for r in results if r["mode"] != "setup"]
    problems = [p for r in results for p in r["problems"]]
    if not any(r["mode"] == repeat for r in results):
        problems.append(f"no {repeat} round fits in {HARD_LIMIT_S:.0f} s")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        metrics = {}
    elif args.trace:
        metrics = traced_metrics(args.workload, results)
    else:
        metrics = end_to_end(results)
        print(f"perfbench: {args.workload} seed {args.seed}: {len(work)} "
              f"rounds, each with {work[0]['samples']} latency samples; "
              f"{len(results) - len(work)} set-up probes; "
              f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not problems,
        "attempted": workload.requests * len(work),
        "failed": sum(r.get("failed", workload.requests) for r in work),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    shutil.rmtree(os.path.join(WORK_DIR, f"run-{os.getpid()}"),
                  ignore_errors=True)
    return 0


def traced_metrics(workload: str, results: List[Dict[str, Any]]
                   ) -> Dict[str, float]:
    """Per-layer metrics: medians over the profiled rounds, the
    dependency wait from the spans round; also writes the per-layer
    JSON with the tracing overhead."""
    plain = [r for r in results if r["mode"] == "plain"]
    spans = [r for r in results if r["mode"] == "spans"]
    profiled = [r for r in results if r["mode"] == "profile"]
    metrics = {name: statistics.median(r["layers"][name] for r in profiled)
               for name in profiled[0]["layers"]}
    metrics.update(spans[0]["layers"])
    untraced = end_to_end(plain)["req_per_s"]
    traced = end_to_end(profiled)["req_per_s"]
    report = {
        "workload": workload,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in PER_LAYER.items()},
        "self_ms_per_req_by_layer": {
            layer: statistics.median(r["self_ms_per_req"].get(layer, 0.0)
                                     for r in profiled)
            for layer in profiled[0]["self_ms_per_req"]},
        "untraced_req_per_s": untraced,
        "profiled_req_per_s": traced,
        "profiled_rounds": len(profiled),
        "tracing_overhead": untraced / traced,
    }
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"layers-{workload}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"perfbench: {workload}: per-layer account in {path}; "
          f"profiled {traced:.1f} req/s against {untraced:.1f} untraced "
          f"({untraced / traced:.2f}x overhead)", file=sys.stderr)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
