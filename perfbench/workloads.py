"""The benchmark's four workloads: inputs made from a seed, one round of
work on the sim or TCP backend, and what the round observed.

Every workload runs ezBFT on four replicas and writes ``put`` commands
the benchmark generates itself.  It keeps its own record of every
command it submitted and every delivery it saw; the checker
(``check.py``) compares the replicas' final state against that record,
never against the program's own counters.

The program is driven only through its public API: ``build_cluster``
(sim), ``Scenario`` + ``build_tcp_cluster`` (TCP), the protocol
clients, ``RequestBatcher`` for client-side batching and
``ReplicaStorage`` for the durable replicas.
"""

from __future__ import annotations

import asyncio
import os
import random
import sys
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The one key every contended command writes; every other key is
#: written exactly once, by one client.
HOT_KEY = "hot"
#: Experiment-1 replica placement (paper Section V).
EXP1_REGIONS = ("virginia", "tokyo", "mumbai", "sydney")
_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"
VALUE_SIZE = 16
#: Recovery timers pushed past any round's horizon: a saturated backlog
#: must never be read as a faulty leader (the saturation method of the
#: paper's Fig. 7 and of the repo's pinned bench cells).
PUSHED_TIMERS = dict(slow_path_timeout=30_000.0, retry_timeout=300_000.0,
                     suspicion_timeout=300_000.0,
                     view_change_timeout=300_000.0)
#: Uniform jitter on every simulated WAN link (share of its latency).
#: Drawn from the round's seed, so simulated latencies vary from one
#: input to the next instead of landing on the same few path sums.
WAN_JITTER = 0.02
#: A TCP round that has not delivered everything by then has failed.
TCP_DEADLINE_S = 90.0
#: The checkout the benchmark runs in (the parent of this directory),
#: and the scratch directory it keeps inside it.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(REPO, ".perfbench")


def use_repo_source() -> None:
    """Import ``repro`` from the checkout's ``src``, never from an
    installed copy."""
    src = os.path.join(REPO, "src")
    if src not in sys.path:
        sys.path.insert(0, src)


@dataclass(frozen=True)
class Workload:
    """One workload's fixed make-up.  A round submits ``requests``
    commands: at least 1000, so that its p99 has ten samples beyond
    it."""

    name: str
    backend: str                      # "sim" or "tcp"
    client_regions: Tuple[str, ...]   # one entry per protocol client
    requests_per_client: int
    batch: int                        # client and owner batch size
    contention: float = 0.0           # share of commands on HOT_KEY
    #: Open loop (sim-wan): mean arrival rate per client; each client's
    #: arrivals are a seeded Poisson process.  0 means a window loop.
    rate_per_client: float = 0.0
    #: Window loop: requests each client keeps in flight.
    window: int = 1
    durable: bool = False
    checkpoint_interval: int = 128
    timers: Tuple[Tuple[str, float], ...] = ()
    #: Independent clusters a round runs one after the other, each on
    #: its own inputs.
    shards: int = 1

    @property
    def requests(self) -> int:
        """Commands one round submits."""
        return (self.shards * len(self.client_regions) *
                self.requests_per_client)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Fig. 7 method: eight open-loop clients in Virginia offer 3200/s at
    # batch 8, well past what the cluster fast-paths, with the recovery
    # timers pushed out.  No contention: no dependency work.
    Workload(name="sim-wan", backend="sim",
             client_regions=("virginia",) * 8, requests_per_client=240,
             batch=8, rate_per_client=400.0,
             timers=tuple(PUSHED_TIMERS.items())),
    # Fig. 4 method: closed-loop clients in all four regions at batch 1;
    # half the commands write the hot key, so about half take the slow
    # path through the executor and the dependency graph.  Its cost per
    # request depends on how many checkpoints become stable, which
    # varies from one input to the next (see README), so a round runs
    # four independent clusters.
    Workload(name="sim-contended", backend="sim",
             client_regions=EXP1_REGIONS * 4, requests_per_client=25,
             batch=1, contention=0.5, shards=4),
    # Real localhost TCP: two clients (one per core), each keeping 32
    # requests in flight as batches of 8.
    Workload(name="tcp-batch8", backend="tcp",
             client_regions=("local",) * 2, requests_per_client=504,
             batch=8, window=32,
             timers=tuple(PUSHED_TIMERS.items())),
    # Durable replicas (WAL + snapshots) at batch 1, checkpointing every
    # 32 executions so each round writes several snapshots per replica.
    # One client, so one command leader: with two, the replicas execute
    # the two leaders' commands in different orders, their states at a
    # checkpoint differ and no snapshot is ever written (see README).
    # The deep window keeps the p99 a queueing delay rather than the
    # single worst checkpoint stall of the round.
    Workload(name="tcp-durable", backend="tcp",
             client_regions=("local",), requests_per_client=1000,
             batch=1, window=32, durable=True, checkpoint_interval=32,
             timers=tuple(PUSHED_TIMERS.items())),
)}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    """Per client: the (key, value) of each command, in submission
    order, and for open loops each command's arrival time (ms)."""

    ops: List[List[Tuple[str, str]]]
    arrivals: List[List[float]]


def input_seed(workload: Workload, seed: int, round_index: int,
               shard: int) -> str:
    return f"perfbench:{workload.name}:{seed}:{round_index}:{shard}"


def make_inputs(workload: Workload, seed: str) -> Inputs:
    """The same seed always gives the same inputs."""
    rng = random.Random(seed)
    ops: List[List[Tuple[str, str]]] = []
    arrivals: List[List[float]] = []
    n = workload.requests_per_client
    for i in range(len(workload.client_regions)):
        client_ops = []
        for k in range(n):
            hot = rng.random() < workload.contention
            key = HOT_KEY if hot else f"c{i}/k{k}"
            value = "".join(rng.choice(_ALPHABET)
                            for _ in range(VALUE_SIZE))
            client_ops.append((key, value))
        ops.append(client_ops)
        if workload.rate_per_client:
            # A Poisson process conditioned on its count: n uniform
            # arrivals over the horizon.  The offered rate is then the
            # same on every seed and only the arrival pattern varies.
            horizon_ms = n * 1000.0 / workload.rate_per_client
            arrivals.append(sorted(rng.uniform(0.0, horizon_ms)
                                   for _ in range(n)))
        else:
            arrivals.append([])
    return Inputs(ops=ops, arrivals=arrivals)


# ----------------------------------------------------------------------
# What a round observed
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """The benchmark's own record of a round plus the replicas' final
    state, as the checker needs them."""

    #: ident -> (key, value) of every command submitted.
    record: Dict[Tuple[str, int], Tuple[str, str]] = field(
        default_factory=dict)
    #: (ident, result, latency_ms, path) per delivery callback.
    deliveries: List[Tuple[Tuple[str, int], Any, float, str]] = field(
        default_factory=list)
    #: replica id -> its final key-value state.
    stores: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: replica id -> idents in its retained execution history, in order.
    histories: Dict[str, List[Tuple[str, int]]] = field(
        default_factory=dict)
    #: Root of the replicas' data directories (durable workloads).
    data_dir: Optional[str] = None
    #: Monotonic clock when the first request was submitted.
    first_submit: float = 0.0
    #: Measured window: first submission to the last delivery (TCP) or
    #: to the simulator going idle (sim).
    window_s: float = 0.0
    cpu_s: float = 0.0
    #: Backend counters read off the public objects after the round.
    counters: Dict[str, float] = field(default_factory=dict)

    def delivered_callback(self, command, result, latency, path) -> None:
        self.deliveries.append((command.ident, result, latency, path))


class _WindowDriver:
    """Keeps ``window`` of one client's requests in flight, submitted in
    batches of ``batch``, until its commands are all delivered.  With
    ``window=1, batch=1`` it is a closed loop."""

    def __init__(self, client, ops, window: int, batch: int,
                 outcome: Outcome, on_done: Callable[[], None]) -> None:
        self.client = client
        self.ops = ops
        self.window = window
        self.batch = batch
        self.outcome = outcome
        self.on_done = on_done
        self.issued = 0
        self.delivered = 0
        client.on_delivery = self._on_delivery

    def fill(self) -> None:
        while self.issued < len(self.ops):
            n = min(self.batch, len(self.ops) - self.issued)
            if self.issued - self.delivered + n > self.window:
                return
            commands = []
            for key, value in self.ops[self.issued:self.issued + n]:
                command = self.client.next_command("put", key, value)
                self.outcome.record[command.ident] = (key, value)
                commands.append(command)
            self.issued += n
            self.client.submit_batch(commands)  # one command: submit()

    def _on_delivery(self, command, result, latency, path) -> None:
        self.outcome.delivered_callback(command, result, latency, path)
        self.delivered += 1
        if self.delivered == len(self.ops):
            self.on_done()
        else:
            self.fill()


def _final_state(replicas: Dict[str, Any], outcome: Outcome) -> None:
    for rid, replica in replicas.items():
        outcome.stores[rid] = replica.statemachine.final_items()
        outcome.histories[rid] = [
            ident for _, ident in replica.executor.history]
    outcome.counters["led"] = sum(r.stats["led"]
                                  for r in replicas.values())


# ----------------------------------------------------------------------
# Sim backend
# ----------------------------------------------------------------------
def run_sim(workload: Workload, inputs: Inputs, seed: str,
            hooks: Any) -> Outcome:
    """One cluster on the deterministic WAN simulator."""
    from repro import EXPERIMENT1, NetworkConditions, build_cluster

    cluster = build_cluster(
        "ezbft", list(EXP1_REGIONS), EXPERIMENT1,
        seed=zlib.crc32(seed.encode()),
        conditions=NetworkConditions(jitter_fraction=WAN_JITTER),
        batch_size=workload.batch, batch_timeout_ms=10.0,
        checkpoint_interval=workload.checkpoint_interval,
        **dict(workload.timers))
    outcome = Outcome()
    clients = [cluster.add_client(f"c{i}", region, record=False)
               for i, region in enumerate(workload.client_regions)]
    drivers = []
    if workload.rate_per_client:
        for client, ops, times in zip(clients, inputs.ops,
                                      inputs.arrivals):
            _schedule_open_loop(cluster.sim, client, ops, times,
                                workload.batch, outcome)
    else:
        drivers = [_WindowDriver(client, ops, workload.window,
                                 workload.batch, outcome, lambda: None)
                   for client, ops in zip(clients, inputs.ops)]

    hooks.start(cluster)
    outcome.first_submit = time.monotonic()
    cpu0 = time.process_time()
    for driver in drivers:
        driver.fill()
    cluster.run_until_idle(max_events=40_000_000)
    outcome.cpu_s = time.process_time() - cpu0
    outcome.window_s = time.monotonic() - outcome.first_submit
    hooks.stop(cluster, outcome)

    _final_state(cluster.replicas, outcome)
    outcome.counters["events"] = cluster.sim.events_processed
    outcome.counters["messages"] = cluster.network.messages_sent
    return outcome


def _schedule_open_loop(sim, client, ops, times, batch,
                        outcome: Outcome) -> None:
    """Each command arrives at its time and joins the client's batcher
    (flush at ``batch`` commands or after 10 ms), like the repo's
    batching open-loop driver."""
    from repro import RequestBatcher

    client.on_delivery = outcome.delivered_callback
    batcher = RequestBatcher(batch_size=batch, batch_timeout_ms=10.0,
                             flush_fn=client.submit_batch,
                             set_timer_fn=client.ctx.set_timer)

    def arrive(key, value):
        command = client.next_command("put", key, value)
        outcome.record[command.ident] = (key, value)
        batcher.add(command)

    for (key, value), at in zip(ops, times):
        sim.schedule_at(at, arrive, key, value)


# ----------------------------------------------------------------------
# TCP backend
# ----------------------------------------------------------------------
def run_tcp(workload: Workload, inputs: Inputs, hooks: Any,
            data_dir: str) -> Outcome:
    """One cluster on real localhost sockets, every node in this
    process."""
    return asyncio.run(_run_tcp(workload, inputs, hooks, data_dir))


async def _run_tcp(workload: Workload, inputs: Inputs, hooks: Any,
                   data_dir: str) -> Outcome:
    from repro import Scenario, WorkloadSpec
    from repro.scenario import build_tcp_cluster
    from repro.storage import ReplicaStorage

    scenario = Scenario(
        name=f"perfbench-{workload.name}",
        replica_regions=("local",) * 4, latency="local",
        workload=WorkloadSpec(batch_size=workload.batch,
                              batch_timeout_ms=10.0),
        checkpoint_interval=workload.checkpoint_interval,
        backends=("tcp",), **dict(workload.timers))
    cluster = build_tcp_cluster(scenario)
    outcome = Outcome()
    storages = []
    loop = asyncio.get_running_loop()
    done = asyncio.Event()
    try:
        await cluster.start()
        if workload.durable:
            outcome.data_dir = data_dir
            for rid, replica in cluster.replicas.items():
                storage = ReplicaStorage(data_dir, rid)
                storages.append(storage)
                replica.attach_storage(storage)
                replica.recover_from_storage()
        clients = []
        for i, region in enumerate(workload.client_regions):
            clients.append(await cluster.add_client(
                f"c{i}", target_replica=cluster.replica_ids[i % 4],
                region=region))
        remaining = [len(clients)]

        def client_done() -> None:
            remaining[0] -= 1
            if not remaining[0]:
                outcome.window_s = time.monotonic() - outcome.first_submit
                outcome.cpu_s = time.process_time() - cpu0
                done.set()

        drivers = [_WindowDriver(client, ops, workload.window,
                                 workload.batch, outcome, client_done)
                   for client, ops in zip(clients, inputs.ops)]
        hooks.start(cluster)
        outcome.first_submit = time.monotonic()
        cpu0 = time.process_time()
        for driver in drivers:
            driver.fill()
        try:
            await asyncio.wait_for(done.wait(), TCP_DEADLINE_S)
        except asyncio.TimeoutError:
            pass  # the checker names what was not delivered
        hooks.stop(cluster, outcome)
        # Delivery needs only the speculative fast path; final
        # execution trails it.  Wait (bounded) until every replica has
        # applied every command before reading its state.
        deadline = loop.time() + 10.0
        while loop.time() < deadline and any(
                r.statemachine.final_ops < len(outcome.record)
                for r in cluster.replicas.values()):
            await asyncio.sleep(0.005)
        _final_state(cluster.replicas, outcome)
        outcome.counters["frames"] = sum(
            n.frames_sent for n in cluster.nodes.values())
    finally:
        await cluster.stop()
        for storage in storages:
            storage.close()
        await asyncio.sleep(0)
    return outcome


def run_round(workload: Workload, seed: int, round_index: int,
              hooks: Any, work_dir: str) -> List[Outcome]:
    """Every shard of one round, in order.  Durable shards keep their
    data under ``work_dir/shard-<n>``."""
    outcomes = []
    for shard in range(workload.shards):
        seed_text = input_seed(workload, seed, round_index, shard)
        inputs = make_inputs(workload, seed_text)
        if workload.backend == "sim":
            outcomes.append(run_sim(workload, inputs, seed_text, hooks))
        else:
            outcomes.append(run_tcp(
                workload, inputs, hooks,
                os.path.join(work_dir, f"shard-{shard}")))
    return outcomes


class NoHooks:
    """The untraced round: nothing runs around the measured window."""

    def start(self, cluster) -> None:
        pass

    def stop(self, cluster, outcome) -> None:
        pass


class SetupDone(Exception):
    """Raised by :class:`SetupProbe` where the first request would be
    submitted."""


class SetupProbe(NoHooks):
    """A set-up-only round: everything up to the first submission, then
    stop (the cluster is torn down on the way out)."""

    def start(self, cluster) -> None:
        raise SetupDone(time.monotonic())
