"""The traced run's per-layer account.

Two instruments, each around the measured window of a round:

- ``ProfileHooks``: ``cProfile`` self-time and exact call counts,
  grouped by the repo's own layer map
  (``repro.analysis.layers.layer_of``), with builtins and stdlib charged
  to the layer that called them; plus byte and size counters taken by
  wrapping methods of the program's classes from outside.
- ``SpanHooks``: the program's own causal tracer (``repro.trace``), whose
  critical-path phases give the time requests spent waiting on
  dependencies before execution.

Every value is per delivered request.  On the simulator every count
(calls, events, messages, verifies) repeats exactly between two runs
of the same seed.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from workloads import REPO, Outcome

#: Every per-layer metric and its unit, in BENCHMARK.json order.
METRICS = {
    "sim.events_per_req": "count",
    "sim.msgs_per_req": "count",
    "sim.self_ms_per_req": "ms",
    "crypto.self_ms_per_req": "ms",
    "crypto.calls_per_req": "count",
    "crypto.encoded_kb_per_req": "KB",
    "crypto.verifies_per_req": "count",
    "messages.self_ms_per_req": "ms",
    "messages.decodes_per_req": "count",
    "transport.frames_per_req": "count",
    "transport.wire_kb_per_req": "KB",
    "transport.self_ms_per_req": "ms",
    "core.self_ms_per_req": "ms",
    "core.ops_per_batch": "count",
    "core.deps_per_order": "count",
    "core.fast_path_ratio": "ratio",
    "core.depwait_ms": "ms",
    "graph.self_ms_per_req": "ms",
    "graph.scc_calls_per_req": "count",
    "statemachine.snapshot_ms_per_req": "ms",
    "storage.appends_per_req": "count",
    "storage.wal_kb_per_req": "KB",
    "storage.append_ms_per_req": "ms",
    "storage.snapshot_kb_per_req": "KB",
    "py.calls_per_req": "count",
    "py.hash_calls_per_req": "count",
}

_SRC = os.path.join(REPO, "src") + os.sep
_HARNESS = os.path.dirname(os.path.abspath(__file__)) + os.sep


class _Counters:
    """Byte and size counters, fed by wrappers installed on the
    program's classes.  They count only while a window is open."""

    def __init__(self) -> None:
        self.active = False
        self.values: Dict[str, float] = defaultdict(float)
        self._install()

    def add(self, name: str, amount: float) -> None:
        if self.active:
            self.values[name] += amount

    def _install(self) -> None:
        from repro.core.replica import EzBFTReplica
        from repro.storage import ReplicaStorage, WriteAheadLog
        from repro.transport.asyncio_tcp import AsyncioNode

        # The package re-exports a function named ``digest``, which
        # shadows the submodule as an attribute of ``repro.crypto``.
        digest_module = importlib.import_module("repro.crypto.digest")
        counters = self
        encode = digest_module._encode

        def counted_encode(value):
            out = encode(value)
            counters.add("encoded_bytes", len(out))
            return out

        # canonical_bytes/digest look _encode up in their module at call
        # time, so every fresh canonical encoding passes through here.
        digest_module._encode = counted_encode

        write_frame = AsyncioNode._write_frame

        async def counted_write_frame(node, dst, frame):
            counters.add("wire_bytes", len(frame) + 4)  # + length prefix
            return await write_frame(node, dst, frame)

        AsyncioNode._write_frame = counted_write_frame

        append = WriteAheadLog.append

        def counted_append(wal, record):
            before = os.path.getsize(wal.path)
            append(wal, record)  # flushes, so the size is current
            counters.add("wal_bytes", os.path.getsize(wal.path) - before)

        WriteAheadLog.append = counted_append

        save_snapshot = ReplicaStorage.save_snapshot

        def counted_save_snapshot(storage, watermark, *args, **kwargs):
            save_snapshot(storage, watermark, *args, **kwargs)
            counters.add("snapshot_bytes", os.path.getsize(os.path.join(
                storage.root, f"snapshot-{watermark}.json")))

        ReplicaStorage.save_snapshot = counted_save_snapshot

        collect_deps = EzBFTReplica._collect_deps

        def counted_collect_deps(replica, command, exclude):
            deps = collect_deps(replica, command, exclude)
            counters.add("deps", len(deps))
            counters.add("dep_sets", 1)
            return deps

        EzBFTReplica._collect_deps = counted_collect_deps


def _layer(func) -> str:
    """The layer a profiled function belongs to, or '' for builtins
    and stdlib (charged to their callers)."""
    filename = func[0]
    if filename.startswith(_SRC):
        from repro.analysis.layers import layer_of
        return layer_of(os.path.relpath(filename, REPO).replace(os.sep,
                                                                "/"))
    if filename.startswith(_HARNESS):
        return "harness"
    return ""


class _Attribution:
    """Charges the self time of builtins and stdlib functions to the
    repo layers that called them, through any chain of stdlib callers,
    in proportion to the time spent under each caller."""

    def __init__(self, stats: Dict) -> None:
        self.stats = stats
        self._memo: Dict[Any, Dict[str, float]] = {}

    def shares(self, func, visiting=frozenset()) -> Dict[str, float]:
        layer = _layer(func)
        if layer:
            return {layer: 1.0}
        if func in self._memo:
            return self._memo[func]
        if func in visiting or func not in self.stats:
            return {}
        callers = self.stats[func][4]
        total = sum(edge[3] for edge in callers.values())
        out: Dict[str, float] = defaultdict(float)
        for caller, edge in callers.items():
            weight = edge[3] / total if total else 1.0 / len(callers)
            for name, share in self.shares(caller,
                                           visiting | {func}).items():
                out[name] += weight * share
        norm = sum(out.values())
        if not norm:
            # Only cycles above: the caller that entered the cycle
            # carries the weight.  Nothing at all: the window's top.
            return {} if visiting else {"other": 1.0}
        result = {k: v / norm for k, v in out.items()}
        if not visiting:
            self._memo[func] = result
        return result

    def self_ms(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for func, (_, _, tt, _, callers) in self.stats.items():
            layer = _layer(func)
            if layer:
                out[layer] += tt * 1000.0
                continue
            if not callers:
                out["other"] += tt * 1000.0
                continue
            for caller, edge in callers.items():
                for name, share in self.shares(caller).items():
                    out[name] += edge[2] * 1000.0 * share
        return dict(out)


class ProfileHooks:
    """cProfile + counters around every measured window of a round."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()
        self.counters = _Counters()

    def start(self, cluster) -> None:
        self.counters.active = True
        self.profile.enable()

    def stop(self, cluster, outcome: Outcome) -> None:
        self.profile.disable()
        self.counters.active = False

    def metrics(self, outcomes: List[Outcome]
                ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """(per-layer metrics, self ms per request by layer)."""
        delivered = sum(len(o.deliveries) for o in outcomes) or 1
        stats = pstats.Stats(self.profile).stats
        self_ms = _Attribution(stats).self_ms()
        calls = crypto_calls = decodes = 0
        named: Dict[str, float] = defaultdict(float)
        cumulative: Dict[str, float] = defaultdict(float)
        for func, (_, nc, _, ct, _) in stats.items():
            layer = _layer(func)
            calls += nc
            crypto_calls += nc if layer == "crypto" else 0
            decodes += nc if layer == "messages" and \
                func[2] == "from_wire" else 0
            where = _qualified(func)
            named[where] += nc
            cumulative[where] += ct * 1000.0
        counter = self.counters.values
        sums = defaultdict(float)
        for outcome in outcomes:
            for name, value in outcome.counters.items():
                sums[name] += value
        leads = named["core/replica.py:_lead"] + \
            named["core/replica.py:_lead_batch"]

        def per_req(value: float) -> float:
            return value / delivered

        return {
            "sim.events_per_req": per_req(sums["events"]),
            "sim.msgs_per_req": per_req(sums["messages"]),
            "sim.self_ms_per_req": per_req(self_ms.get("sim", 0.0)),
            "crypto.self_ms_per_req": per_req(self_ms.get("crypto", 0.0)),
            "crypto.calls_per_req": per_req(crypto_calls),
            "crypto.encoded_kb_per_req":
                per_req(counter["encoded_bytes"] / 1024.0),
            "crypto.verifies_per_req": per_req(
                named["crypto/signatures.py:verify"] +
                named["crypto/authenticator.py:verify_authenticator"]),
            "messages.self_ms_per_req":
                per_req(self_ms.get("messages", 0.0)),
            "messages.decodes_per_req": per_req(decodes),
            "transport.frames_per_req": per_req(sums["frames"]),
            "transport.wire_kb_per_req":
                per_req(counter["wire_bytes"] / 1024.0),
            "transport.self_ms_per_req":
                per_req(self_ms.get("transport", 0.0)),
            "core.self_ms_per_req": per_req(self_ms.get("core", 0.0)),
            "core.ops_per_batch": sums["led"] / leads if leads else 0.0,
            "core.deps_per_order": counter["deps"] / counter["dep_sets"]
            if counter["dep_sets"] else 0.0,
            "core.fast_path_ratio": sum(
                1 for o in outcomes for d in o.deliveries
                if d[3] == "fast") / delivered,
            "graph.self_ms_per_req": per_req(self_ms.get("graph", 0.0)),
            "graph.scc_calls_per_req":
                per_req(named["graph/scc.py:tarjan_scc"]),
            "statemachine.snapshot_ms_per_req":
                per_req(cumulative["statemachine/kvstore.py:snapshot"]),
            "storage.appends_per_req":
                per_req(named["storage/wal.py:append"]),
            "storage.wal_kb_per_req":
                per_req(counter["wal_bytes"] / 1024.0),
            "storage.append_ms_per_req":
                per_req(cumulative["storage/wal.py:append"]),
            "storage.snapshot_kb_per_req":
                per_req(counter["snapshot_bytes"] / 1024.0),
            "py.calls_per_req": per_req(calls),
            "py.hash_calls_per_req": per_req(
                named["<built-in method builtins.hash>"]),
        }, {name: round(ms / delivered, 6)
            for name, ms in sorted(self_ms.items())}


def _qualified(func) -> str:
    filename, _, name = func
    if filename.startswith(_SRC + "repro" + os.sep):
        rel = filename[len(_SRC + "repro" + os.sep):]
        return f"{rel.replace(os.sep, '/')}:{name}"
    return name


class SpanHooks:
    """The program's causal tracer around every measured window; its
    critical-path phases give the dependency wait per request."""

    def __init__(self) -> None:
        self.depwait_ms = 0.0
        self._collector = None

    def start(self, cluster) -> None:
        from repro.trace import ActiveTracer, TraceCollector

        self._collector = TraceCollector()
        sim = getattr(cluster, "sim", None)
        if sim is not None:
            clock = lambda: sim.now  # noqa: E731 -- simulated ms
            nodes = [cluster.network]
        else:
            from repro.trace.live import wall_clock_ms
            clock = wall_clock_ms
            nodes = list(cluster.nodes.values())
        tracer = ActiveTracer(clock, collector=self._collector)
        for node in nodes:
            node.tracer = tracer
        for replica in cluster.replicas.values():
            replica.attach_tracer(tracer)
        for client in cluster.clients.values():
            client.tracer = tracer

    def stop(self, cluster, outcome: Outcome) -> None:
        from repro.trace import SPAN_EXEC_DEPWAIT, summarize_traces

        summary = summarize_traces(self._collector.spans())
        for bucket in summary["by_path"].values():
            self.depwait_ms += bucket["phase_ms"].get(SPAN_EXEC_DEPWAIT,
                                                      0.0)

    def metrics(self, outcomes: List[Outcome]
                ) -> Tuple[Dict[str, float], Dict[str, float]]:
        delivered = sum(len(o.deliveries) for o in outcomes) or 1
        return {"core.depwait_ms": self.depwait_ms / delivered}, {}
