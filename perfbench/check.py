"""Output checker: does a round's result agree with what the benchmark
itself submitted?

It relies on the benchmark's own record (every command submitted, every
delivery seen) and on the replicas' final state, never on the program's
counters:

- every submitted command was delivered exactly once, with ``"OK"``;
- every replica's final store equals the store the record implies:
  each private key holds exactly the value put to it, and the hot key
  holds a value that was put to it, the same on every replica;
- commands on the hot key (the only interfering ones) executed in the
  same relative order on every replica, over the history each replica
  still retains after checkpoint garbage collection;
- on durable workloads, every WAL segment replays to its last byte,
  every record decodes, and every snapshot's digest matches its state.

``python3 perfbench/check.py --self-test`` shows the checker rejecting
an altered store, a missing delivery and a torn WAL record.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from collections import Counter
from typing import Dict, List, Tuple

from workloads import HOT_KEY, Outcome, use_repo_source


def check(outcome: Outcome) -> List[str]:
    """Every problem found in one cluster's outcome (empty: correct)."""
    problems = _check_deliveries(outcome)
    problems += _check_stores(outcome)
    problems += _check_order(outcome)
    if outcome.data_dir is not None:
        problems += check_data_dir(outcome.data_dir)
    return problems


def delivered_ok(outcome: Outcome) -> int:
    """Submitted commands delivered exactly once, with ``"OK"``."""
    seen = Counter(ident for ident, _, _, _ in outcome.deliveries)
    ok = {ident for ident, result, _, _ in outcome.deliveries
          if result == "OK"}
    return sum(1 for ident in outcome.record
               if seen[ident] == 1 and ident in ok)


def _check_deliveries(outcome: Outcome) -> List[str]:
    problems = []
    seen = Counter(ident for ident, _, _, _ in outcome.deliveries)
    missing = [i for i in outcome.record if seen[i] == 0]
    repeated = [i for i in outcome.record if seen[i] > 1]
    unknown = [i for i in seen if i not in outcome.record]
    bad = [i for i, result, _, _ in outcome.deliveries if result != "OK"]
    for label, idents in (("never delivered", missing),
                          ("delivered more than once", repeated),
                          ("delivered but never submitted", unknown),
                          ("delivered with a result other than OK", bad)):
        if idents:
            problems.append(f"{len(idents)} command(s) {label}, "
                            f"e.g. {sorted(idents)[0]}")
    return problems


def expected_store(outcome: Outcome) -> Tuple[Dict[str, str], set]:
    """(private key -> value, values put to the hot key), from the
    record alone."""
    private: Dict[str, str] = {}
    hot_values = set()
    for key, value in outcome.record.values():
        if key == HOT_KEY:
            hot_values.add(value)
        else:
            private[key] = value
    return private, hot_values


def _check_stores(outcome: Outcome) -> List[str]:
    problems = []
    private, hot_values = expected_store(outcome)
    hot_seen = {}
    for rid, store in sorted(outcome.stores.items()):
        state = dict(store)
        if hot_values:
            if HOT_KEY not in state:
                problems.append(f"{rid}: hot key missing")
            elif state[HOT_KEY] not in hot_values:
                problems.append(f"{rid}: hot key holds "
                                f"{state[HOT_KEY]!r}, never put to it")
            hot_seen[rid] = state.pop(HOT_KEY, None)
        wrong = [k for k, v in private.items() if state.get(k) != v]
        extra = [k for k in state if k not in private]
        if wrong:
            problems.append(f"{rid}: {len(wrong)} key(s) missing or "
                            f"wrong, e.g. {sorted(wrong)[0]!r}")
        if extra:
            problems.append(f"{rid}: {len(extra)} key(s) never written, "
                            f"e.g. {sorted(extra)[0]!r}")
    if len(set(hot_seen.values())) > 1:
        problems.append(f"replicas disagree on the hot key: {hot_seen}")
    if not outcome.stores:
        problems.append("no replica state was read")
    return problems


def _check_order(outcome: Outcome) -> List[str]:
    hot = {ident for ident, (key, _) in outcome.record.items()
           if key == HOT_KEY}
    orders = {rid: [i for i in history if i in hot]
              for rid, history in outcome.histories.items()}
    problems = []
    for (a, order_a), (b, order_b) in itertools.combinations(
            sorted(orders.items()), 2):
        common = set(order_a) & set(order_b)
        if [i for i in order_a if i in common] != \
                [i for i in order_b if i in common]:
            problems.append(f"{a} and {b} executed hot-key commands in "
                            f"different orders")
    return problems


def check_data_dir(root: str) -> List[str]:
    """A durable deployment's data directories: every WAL segment is
    whole-record framed to its last byte and every record decodes;
    every snapshot parses and matches its recorded state digest; and
    each replica wrote at least one snapshot."""
    from repro.crypto.digest import digest
    from repro.errors import ReproError
    from repro.messages import decode
    from repro.storage import replay_wal, valid_prefix_len

    problems = []
    replicas = sorted(os.listdir(root)) if os.path.isdir(root) else []
    if not replicas:
        problems.append(f"{root}: no replica data directories")
    for rid in replicas:
        path = os.path.join(root, rid)
        names = sorted(os.listdir(path))
        snapshots = [n for n in names if n.startswith("snapshot-")]
        if not snapshots:
            problems.append(f"{rid}: no snapshot written")
        for name in names:
            file = os.path.join(path, name)
            if name.startswith("wal-"):
                size = os.path.getsize(file)
                valid = valid_prefix_len(file)
                if valid != size:
                    problems.append(f"{rid}/{name}: replay stops at byte "
                                    f"{valid} of {size}")
                for record in replay_wal(file):
                    try:
                        decode(record["wire"])
                    except (ReproError, KeyError, TypeError,
                            ValueError) as exc:
                        problems.append(f"{rid}/{name}: record does not "
                                        f"decode ({exc!r})")
                        break
            elif name.startswith("snapshot-"):
                try:
                    with open(file, encoding="utf-8") as fh:
                        payload = json.load(fh)
                    valid = digest(payload["snapshot"]) == \
                        payload["state_digest"]
                except (OSError, ValueError, KeyError):
                    valid = False
                if not valid:
                    problems.append(f"{rid}/{name}: unreadable or its "
                                    f"state digest does not match")
    return problems


# ----------------------------------------------------------------------
# Self-test
# ----------------------------------------------------------------------
def self_test() -> int:
    """Run a small contended sim cluster and a small durable TCP
    cluster, confirm the checker accepts both, then confirm it rejects
    an altered store value, a missing delivery and a torn WAL record."""
    import copy
    import dataclasses
    import shutil
    import tempfile

    from workloads import WORK_DIR, WORKLOADS, NoHooks, input_seed, \
        make_inputs, run_sim, run_tcp

    workload = dataclasses.replace(WORKLOADS["sim-contended"],
                                   requests_per_client=4, shards=1)
    seed = input_seed(workload, 1, 0, 0)
    outcome = run_sim(workload, make_inputs(workload, seed), seed,
                      NoHooks())
    cases = []
    cases.append(("clean run", outcome, True))

    altered = copy.deepcopy(outcome)
    rid = sorted(altered.stores)[1]
    key = sorted(k for k in altered.stores[rid] if k != HOT_KEY)[0]
    altered.stores[rid][key] = altered.stores[rid][key] + "x"
    cases.append((f"one altered value ({rid} {key})", altered, False))

    dropped = copy.deepcopy(outcome)
    dropped.deliveries.pop(len(dropped.deliveries) // 2)
    cases.append(("one missing delivery", dropped, False))

    durable = dataclasses.replace(WORKLOADS["tcp-durable"],
                                  requests_per_client=40)
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as scratch:
        data_dir = os.path.join(scratch, "clean")
        stored = run_tcp(
            durable, make_inputs(durable, input_seed(durable, 1, 0, 0)),
            NoHooks(), data_dir)
        cases.append(("clean durable run", stored, True))
        torn = copy.deepcopy(stored)
        torn.data_dir = os.path.join(scratch, "torn")
        shutil.copytree(data_dir, torn.data_dir)
        segment = sorted(n for n in os.listdir(
            os.path.join(torn.data_dir, "r0")) if n.startswith("wal-"))[-1]
        with open(os.path.join(torn.data_dir, "r0", segment), "ab") as fh:
            fh.write(b"\x07\x00\x00\x00torn")
        cases.append((f"a torn record at the end of r0/{segment}", torn,
                      False))
        return _report(cases)


def _report(cases) -> int:
    ok = True
    for label, case, should_pass in cases:
        problems = check(case)
        passed = not problems
        verdict = "ok" if passed == should_pass else "WRONG"
        ok = ok and passed == should_pass
        outcome = "accepted" if passed else \
            "rejected: " + "; ".join(problems)
        print(f"{verdict:5} {label}: {outcome}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--self-test"]:
        print("usage: check.py --self-test", file=sys.stderr)
        sys.exit(2)
    use_repo_source()
    sys.exit(self_test())
