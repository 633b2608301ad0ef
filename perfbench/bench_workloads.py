"""The benchmark's workloads: build a deployment, drive it, check it.

Each workload class is constructed with its scale (the defaults are the
benchmark's; the smoke test passes tiny ones) and exposes
``setup(seed) -> Run``.  A :class:`Run` holds the built deployment and the
generated inputs; ``Run.execute()`` is the only part timed as ``run_s``
(it calls ``sim.run``), and ``Run.results()`` reads simulated metrics,
exact work counters, a ``sim_fingerprint`` and correctness violations
from public state after the run.

Nothing here reads the host clock: every value these classes return is a
pure function of ``(workload, scale, seed)``.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.app.statemachine import is_read_only
from repro.deploy import ClusterSpec, GroupSpec, MiddlewareSpec, ShardSpec, build
from repro.deploy.middleware import Rejected, Served
from repro.experiments.common import REGIONS, fresh_env, spider_spec
from repro.irmc import IrmcConfig, make_channel
from repro.metrics import percentile
from repro.net import Payload, Site
from repro.sim import Process
from repro.sim.routing import RoutedNode
from repro.workload import ClosedLoopDriver, OperationMix
from repro.workload.traffic import ZipfianKeys


def fingerprint(obj: Any) -> int:
    """Stable checksum of simulated results (same recipe as the perf bench)."""
    return zlib.crc32(repr(obj).encode("utf-8", errors="replace"))


@dataclass
class Results:
    """What one run produced, all of it simulated and exact."""

    attempted: int
    completed: int
    #: end-to-end simulated metrics (ms, ops per simulated second).
    sim: Dict[str, float]
    #: sample count behind each latency percentile in ``sim``.
    samples: Dict[str, int]
    #: per-layer work counters (see the README for what each should move).
    counters: Dict[str, float]
    fingerprint: int
    violations: List[str] = field(default_factory=list)

    def comparable(self) -> Tuple:
        """Everything that must repeat exactly across repeats and traces."""
        return (
            self.attempted,
            self.completed,
            sorted(self.sim.items()),
            sorted(self.samples.items()),
            sorted(self.counters.items()),
            self.fingerprint,
        )


def _latency_stats(prefix: str, values: List[float], sim: dict, samples: dict) -> None:
    for name, p in (("p50", 50), ("p99", 99)):
        sim[f"{prefix}_{name}_ms"] = percentile(values, p)
        samples[f"{prefix}_{name}_ms"] = len(values)


def _throughput(done_ms: List[float]) -> float:
    """Ops per simulated second between the first and the last completion."""
    if len(done_ms) < 2:
        return 0.0
    return (len(done_ms) - 1) / ((max(done_ms) - min(done_ms)) / 1000.0)


def _per_op(value: float, ops: int) -> float:
    return value / ops if ops else 0.0


def _network_counters(network, ops: int) -> Dict[str, float]:
    return {
        "net.wan_msgs_per_op": _per_op(network.wan.messages, ops),
        "net.wan_bytes_per_op": _per_op(network.wan.bytes, ops),
        "net.lan_msgs_per_op": _per_op(network.lan.messages, ops),
        "net.lan_bytes_per_op": _per_op(network.lan.bytes, ops),
    }


def _zero_counters() -> Dict[str, float]:
    """The layer counters at 0: what a workload reports for a layer it
    never touches."""
    return {
        "irmc.sent": 0,
        "irmc.delivered": 0,
        "irmc.collector_switches": 0,
        "irmc.send_wait_ms": 0.0,
        "consensus.ops_per_batch": 0.0,
        "consensus.leader_busy_frac": 0.0,
        "consensus.view_changes": 0,
        "consensus.state_transfers": 0,
        "checkpoints.stable": 0,
        "checkpoints.applied": 0,
        "core.exec_busy_frac": 0.0,
        "core.weak_reads": 0,
        "deploy.shed": 0,
        "deploy.admitted_ratio": 0.0,
    }


class _CommitRecorder:
    """Records when each write first executes on a shard.

    Wraps the ``execute`` method of every execution replica's application:
    the first replica to execute a write commits it on the shard.  The
    wrapper schedules nothing, so the simulation is unchanged.
    """

    def __init__(self, sim, shard):
        self.sim = sim
        #: operation -> simulated time it first executed.
        self.first: Dict[Any, float] = {}
        for group in shard.groups.values():
            for replica in group.replicas:
                replica.app.execute = self._recorded(replica.app.execute)

    def _recorded(self, execute):
        def recorded(operation):
            if not is_read_only(operation):
                self.first.setdefault(operation, self.sim.now)
            return execute(operation)

        return recorded

    def times(self) -> List[float]:
        return sorted(self.first.values())


class _InstallCounter:
    """Counts stable checkpoints that move a replica's state forward.

    Wraps each replica checkpoint component's ``on_stable`` callback: a
    checkpoint handed over with ``seq > replica.sn`` is a state transfer
    (the replica fell behind and installs its peers' state), as opposed
    to a replica confirming the state it already holds.  The wrapper
    schedules nothing, so the simulation is unchanged.
    """

    def __init__(self, shards):
        self.count = 0
        for shard in shards:
            replicas = list(shard.agreement_replicas)
            for group in shard.groups.values():
                replicas.extend(group.replicas)
            for replica in replicas:
                replica.cp.on_stable = self._counted(replica, replica.cp.on_stable)

    def _counted(self, replica, on_stable):
        def counted(seq: int, state: Any) -> None:
            if seq > replica.sn:
                self.count += 1
            on_stable(seq, state)

        return counted


def _spider_counters(shards, installs: _InstallCounter, load_end_ms: float) -> Dict[str, float]:
    """IRMC / consensus / checkpoint / core counters of Spider shards."""
    counters = _zero_counters()
    ordered = instances = view_changes = 0
    leader_busy = exec_busy = 0.0
    exec_replicas = 0
    for shard in shards:
        agreement = shard.agreement_replicas
        furthest = max(agreement, key=lambda replica: replica.delivered_count)
        ordered += furthest.requests_delivered
        instances += furthest.delivered_count
        view_changes += max(replica.ag.view_changes_completed for replica in agreement)
        counters["consensus.state_transfers"] += sum(
            replica.ag.state_transfers_requested for replica in agreement
        )
        # The initial leader: view 0's primary carries the ordering load.
        leader = agreement[0].ag.leader_name(0)
        leader_busy += next(r.busy_ms for r in agreement if r.name == leader)
        counters["checkpoints.stable"] += max(replica.cp.stable_count for replica in agreement)
        for replica in agreement:
            for channels in replica.groups.values():
                counters["irmc.sent"] += channels.commit_tx.sent_count
                counters["irmc.delivered"] += channels.request_rx.delivered_count
                counters["irmc.collector_switches"] += getattr(
                    channels.request_rx, "collector_switches", 0
                )
        for group in shard.groups.values():
            for replica in group.replicas:
                exec_replicas += 1
                exec_busy += replica.busy_ms
                counters["core.weak_reads"] += replica.weak_read_count
                counters["irmc.sent"] += replica.request_tx.sent_count
                counters["irmc.delivered"] += replica.commit_rx.delivered_count
                counters["irmc.collector_switches"] += getattr(
                    replica.commit_rx, "collector_switches", 0
                )
    counters["consensus.ops_per_batch"] = _per_op(ordered, instances)
    counters["checkpoints.applied"] = installs.count
    counters["consensus.leader_busy_frac"] = leader_busy / len(shards) / load_end_ms
    counters["consensus.view_changes"] = view_changes
    counters["core.exec_busy_frac"] = _per_op(exec_busy, exec_replicas) / load_end_ms
    return counters


class Run:
    """One built deployment plus its generated inputs."""

    def __init__(self, sim, network, until_ms: float):
        self.sim = sim
        self.network = network
        self.until_ms = until_ms

    def execute(self) -> None:
        self.sim.run(until=self.until_ms)

    def results(self) -> Results:  # pragma: no cover - abstract
        raise NotImplementedError

    def _common_counters(self, ops: int) -> Dict[str, float]:
        counters = {
            "sim.events": self.sim.events_processed,
            "sim.events_per_op": _per_op(self.sim.events_processed, ops),
        }
        counters.update(_network_counters(self.network, ops))
        return counters


# ======================================================================
# fig7-writes
# ======================================================================
class _RecordingClient:
    """Forwards a driver's writes to a Spider client, keeping each
    operation and its future so the run can be audited afterwards."""

    def __init__(self, client):
        self.client = client
        self.name = client.name
        self.writes: List[Tuple[str, Any]] = []

    def write(self, operation):
        future = self.client.write(operation)
        self.writes.append((operation[1], future))
        return future


class Fig7Writes:
    """The paper's 4-region deployment under saturated closed-loop writes.

    One shard: a PBFT agreement group in Virginia and one execution group
    per region; ``clients_per_region`` zero-think write clients per region
    (the shape of ``benchmarks/test_perf_wallclock.py``'s
    ``fig7_write_saturated``; at its seed and scale the fingerprint is the
    same).  Default crypto cost model, 5% link jitter.
    """

    name = "fig7-writes"
    default_seed = 11

    def __init__(
        self,
        clients_per_region: int = 6,
        duration_ms: float = 5_500.0,
        warmup_ms: float = 1_000.0,
        drain_ms: float = 3_000.0,
    ):
        self.clients_per_region = clients_per_region
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.drain_ms = drain_ms

    def setup(self, seed: int) -> "Fig7Run":
        sim, network = fresh_env(seed=seed)
        system = build(sim, spider_spec(), network=network).system
        clients = []
        for region in REGIONS:
            for index in range(self.clients_per_region):
                client = _RecordingClient(system.make_client(f"cl-{region}-{index}", region))
                clients.append(client)
                ClosedLoopDriver(
                    sim,
                    client,
                    think_ms=0.0,
                    mix=OperationMix(write=1.0),
                    duration_ms=self.duration_ms,
                )
        return Fig7Run(self, sim, network, system, clients, _InstallCounter([system]))


class Fig7Run(Run):
    def __init__(self, workload: Fig7Writes, sim, network, system, clients, installs):
        super().__init__(sim, network, workload.duration_ms + workload.drain_ms)
        self.workload = workload
        self.system = system
        self.clients = clients
        self.installs = installs

    def results(self) -> Results:
        w = self.workload
        violations: List[str] = []
        latencies: List[float] = []
        in_window: List[float] = []
        acked: Dict[str, List[int]] = {}
        attempted = completed = 0
        for recorder in self.clients:
            for kind, start, latency in recorder.client.completed:
                if w.warmup_ms <= start < w.duration_ms:
                    latencies.append(latency)
                if w.warmup_ms <= start + latency < w.duration_ms:
                    in_window.append(start + latency)
            for key, future in recorder.writes:
                attempted += 1
                result = future.value if future.done else None
                if not (isinstance(result, tuple) and result[0] == "ok"):
                    violations.append(f"{recorder.name}: write to {key} ended {result!r}")
                    continue
                completed += 1
                acked.setdefault(key, []).append(result[1])
        # Every acknowledged write is present exactly once: each key's
        # acknowledged versions are 1..n, and every execution replica holds
        # version n of it, with identical state everywhere.
        for key, versions in sorted(acked.items()):
            if sorted(versions) != list(range(1, len(versions) + 1)):
                violations.append(f"{key}: acknowledged versions {sorted(versions)}")
        expected_versions = {key: len(versions) for key, versions in acked.items()}
        reference = None
        for group in self.system.groups.values():
            for replica in group.replicas:
                data, versions = replica.app.snapshot()
                if versions != expected_versions:
                    violations.append(f"{replica.name}: versions {versions} != acked")
                if reference is None:
                    reference = (data, versions)
                elif (data, versions) != reference:
                    violations.append(f"{replica.name}: state differs from other replicas")
        sim: Dict[str, float] = {"sim_ops_per_s": _throughput(in_window)}
        samples: Dict[str, int] = {}
        _latency_stats("sim", latencies, sim, samples)
        _latency_stats("sim_write", latencies, sim, samples)
        counters = self._common_counters(completed)
        counters.update(_spider_counters([self.system], self.installs, w.duration_ms))
        return Results(
            attempted=attempted,
            completed=completed,
            sim=sim,
            samples=samples,
            counters=counters,
            fingerprint=fingerprint(
                [(recorder.name, recorder.client.completed) for recorder in self.clients]
            ),
            violations=violations,
        )


# ======================================================================
# irmc-stream
# ======================================================================
class IrmcStream:
    """One RC and one SC channel (3 senders in Virginia -> 4 receivers in
    Tokyo, fs = fr = 1), each pumped at saturation with ``positions``
    1 KiB payloads on subchannel 0, then drained until every receiver has
    every position.  Default crypto cost model, 5% link jitter."""

    name = "irmc-stream"
    default_seed = 11
    kinds = ("rc", "sc")
    payload_bytes = 1_024
    #: receivers move their window every this many positions.
    window_move_batch = 64

    def __init__(self, positions: int = 3_072, capacity: int = 2_048, until_ms: float = 4_000.0):
        self.positions = positions
        self.capacity = capacity
        self.until_ms = until_ms

    def setup(self, seed: int) -> "IrmcRun":
        sim, network = fresh_env(seed=seed)
        run = IrmcRun(self, sim, network)
        config = IrmcConfig(
            fs=1, fr=1, capacity=self.capacity, progress_interval_ms=200.0
        )
        for kind in self.kinds:
            # The payloads are the generated input: one labelled 1 KiB
            # payload per position, the label drawn from the seed so a
            # receiver can prove it got exactly what was sent.
            rng = random.Random(f"perfbench:{seed}:irmc:{kind}")
            payloads = [None] + [
                Payload(self.payload_bytes, label=f"{kind}-{p}-{rng.getrandbits(32):08x}")
                for p in range(1, self.positions + 1)
            ]
            senders = [
                network.register(RoutedNode(sim, f"{kind}-s{i}", Site("virginia", i + 1)))
                for i in range(3)
            ]
            receivers = [
                network.register(RoutedNode(sim, f"{kind}-r{i}", Site("tokyo", i + 1)))
                for i in range(4)
            ]
            tx, rx = make_channel(kind, f"bench-{kind}", senders, receivers, config)
            channel = _Channel(kind, payloads, tx, rx)
            run.channels.append(channel)
            for node in senders:
                Process(sim, run.sender_loop(channel, tx[node.name]), node=node)
            for node in receivers:
                Process(sim, run.receiver_loop(channel, node.name, rx[node.name]), node=node)
        return run


@dataclass
class _Channel:
    kind: str
    payloads: List[Optional[Payload]]
    tx: Dict[str, Any]
    rx: Dict[str, Any]
    #: position -> simulated time of the earliest sender ``send`` call.
    first_send: Dict[int, float] = field(default_factory=dict)
    #: receiver -> [(position, payload, delivered_ms)] in receive order.
    received: Dict[str, List[Tuple[int, Any, float]]] = field(default_factory=dict)


class IrmcRun(Run):
    def __init__(self, workload: IrmcStream, sim, network):
        super().__init__(sim, network, workload.until_ms)
        self.workload = workload
        self.channels: List[_Channel] = []
        self.send_wait_ms = 0.0

    def sender_loop(self, channel: _Channel, endpoint):
        sim = self.sim
        for position in range(1, self.workload.positions + 1):
            called = sim.now
            channel.first_send.setdefault(position, called)
            yield endpoint.send(0, position, channel.payloads[position])
            self.send_wait_ms += sim.now - called

    def receiver_loop(self, channel: _Channel, name: str, endpoint):
        sim = self.sim
        batch = self.workload.window_move_batch
        received = channel.received.setdefault(name, [])
        for position in range(1, self.workload.positions + 1):
            payload = yield endpoint.receive(0, position)
            received.append((position, payload, sim.now))
            if position % batch == 0:
                endpoint.move_window(0, position + 1)

    def results(self) -> Results:
        w = self.workload
        violations: List[str] = []
        latencies: List[float] = []
        #: per position delivered at every receiver, the last delivery time.
        completions: List[float] = []
        counters = _zero_counters()
        deliveries = []
        expected = list(range(1, w.positions + 1))
        for channel in self.channels:
            delivered_at: Dict[int, List[float]] = {}
            for name, received in sorted(channel.received.items()):
                if [position for position, _payload, _at in received] != expected:
                    violations.append(
                        f"{channel.kind}/{name}: got {len(received)} of {w.positions} "
                        "positions or out of order"
                    )
                for position, payload, at in received:
                    if payload is not channel.payloads[position]:
                        violations.append(f"{channel.kind}/{name}: wrong payload at {position}")
                    latencies.append(at - channel.first_send[position])
                    delivered_at.setdefault(position, []).append(at)
                deliveries.append((channel.kind, name, [at for _p, _x, at in received]))
            if len(channel.received) != len(channel.rx):
                violations.append(f"{channel.kind}: a receiver never started")
            completions.extend(
                max(times) for times in delivered_at.values() if len(times) == len(channel.rx)
            )
            for endpoint in channel.rx.values():
                if endpoint.delivered_count != w.positions:
                    violations.append(
                        f"{channel.kind}/{endpoint.node.name}: delivered "
                        f"{endpoint.delivered_count} != {w.positions}"
                    )
                counters["irmc.delivered"] += endpoint.delivered_count
                counters["irmc.collector_switches"] += getattr(
                    endpoint, "collector_switches", 0
                )
            for endpoint in channel.tx.values():
                counters["irmc.sent"] += endpoint.sent_count
        completed = len(completions)
        counters["irmc.send_wait_ms"] = self.send_wait_ms
        attempted = w.positions * len(self.channels)
        sim: Dict[str, float] = {"sim_ops_per_s": _throughput(completions)}
        samples: Dict[str, int] = {}
        _latency_stats("sim", latencies, sim, samples)
        _latency_stats("sim_deliver", latencies, sim, samples)
        all_counters = self._common_counters(completed)
        all_counters.update(counters)
        return Results(
            attempted=attempted,
            completed=completed,
            sim=sim,
            samples=samples,
            counters=all_counters,
            fingerprint=fingerprint(deliveries),
            violations=violations,
        )


# ======================================================================
# geo-mixed-failover
# ======================================================================
class GeoMixedFailover:
    """A 2-shard cluster built through ``repro.deploy`` (each shard: PBFT
    agreement in Virginia plus one execution group per region), sessions
    in all four regions behind the ``slo-metrics`` + ``admission``
    middleware, fed a precomputed open-loop plan (see :meth:`plan`) of
    Zipfian keys, half writes and half weak reads.  The agreement leader of ``s0``
    crashes at ``crash_at_ms`` and recovers at ``recover_at_ms``.
    Default crypto cost model, 5% link jitter.

    The default rate offers writes at half the cluster's write
    saturation: ``perfbench/saturation.py`` drives :meth:`spec` with this
    workload's 32 zero-think write sessions per region on the same keys
    and measures 565 writes per simulated second (557 at seed 424242).
    Half of the 560 ops/s are writes: 280 writes/s.
    """

    name = "geo-mixed-failover"
    default_seed = 7
    shards = 2
    zipf_skew = 0.99
    #: above the backlog the failover builds, so no op is shed.
    admission_depth = 1_024

    def __init__(
        self,
        rate_ops_s: float = 560.0,
        duration_ms: float = 5_000.0,
        warmup_ms: float = 500.0,
        crash_at_ms: float = 1_500.0,
        recover_at_ms: float = 3_000.0,
        drain_ms: float = 4_000.0,
        sessions_per_region: int = 32,
        n_keys: int = 1_000,
    ):
        self.rate_ops_s = rate_ops_s
        self.duration_ms = duration_ms
        self.warmup_ms = warmup_ms
        self.crash_at_ms = crash_at_ms
        self.recover_at_ms = recover_at_ms
        self.drain_ms = drain_ms
        self.sessions_per_region = sessions_per_region
        self.n_keys = n_keys

    def spec(self) -> ClusterSpec:
        return ClusterSpec(
            shards=tuple(
                ShardSpec(
                    f"s{index}",
                    groups=tuple(GroupSpec(f"s{index}-{region}", region) for region in REGIONS),
                )
                for index in range(self.shards)
            ),
            middleware=(
                MiddlewareSpec.of("slo-metrics"),
                MiddlewareSpec.of("admission", depth=self.admission_depth),
            ),
        )

    def plan(self, seed: int) -> List[Tuple[float, Tuple[int, str, str]]]:
        """The offered load: ``[(due_ms, (session, kind, key)), ...]``.

        Poisson arrivals conditioned on their count (``rate x duration``
        uniform order statistics), so every seed offers the same number of
        ops.  The mix is stratified: each block of eight consecutive
        arrivals holds one write and one weak read from every region, in
        random order, so region and kind shares do not vary with the seed
        either.  Within a region, arrivals go to its sessions round-robin
        (as a load balancer would), so the backlog a failover leaves is
        spread evenly over them.  Keys are Zipfian.
        """
        rng = random.Random(f"perfbench:{seed}:geo:plan")
        keys = ZipfianKeys(self.n_keys, skew=self.zipf_skew)
        count = int(self.rate_ops_s * self.duration_ms / 1000.0)
        dues = sorted(rng.uniform(0.0, self.duration_ms) for _ in range(count))
        strata = [
            (region, kind)
            for region in range(len(REGIONS))
            for kind in ("write", "weak-read")
        ]
        issued = [0] * len(REGIONS)
        plan = []
        for first in range(0, count, len(strata)):
            block = list(strata)
            rng.shuffle(block)
            for due, (region, kind) in zip(dues[first:first + len(strata)], block):
                turn = issued[region] % self.sessions_per_region
                issued[region] += 1
                plan.append((due, (region + len(REGIONS) * turn, kind, keys.sample(rng))))
        return plan

    def setup(self, seed: int) -> "GeoRun":
        plan = self.plan(seed)
        sim, network = fresh_env(seed=seed)
        cluster = build(sim, self.spec(), network=network)
        sessions = [
            cluster.session(f"u{index}", REGIONS[index % len(REGIONS)])
            for index in range(self.sessions_per_region * len(REGIONS))
        ]
        run = GeoRun(self, sim, network, cluster, sessions, plan)
        for index, (due_ms, _descriptor) in enumerate(plan):
            sim.schedule_at(due_ms, run.fire, index)
        sim.schedule_at(self.crash_at_ms, run.crash_leader)
        sim.schedule_at(self.recover_at_ms, run.recover_leader)
        return run


class GeoRun(Run):
    def __init__(self, workload: GeoMixedFailover, sim, network, cluster, sessions, plan):
        super().__init__(sim, network, workload.duration_ms + workload.drain_ms)
        self.workload = workload
        self.cluster = cluster
        self.sessions = sessions
        self.plan = plan
        #: per plan entry: (done_ms, result), filled as futures resolve.
        self.outcomes: List[Optional[Tuple[float, Any]]] = [None] * len(plan)
        self.crashed = None
        self.shards = [cluster.shard(shard_id) for shard_id in cluster.spec.shard_ids()]
        self.installs = _InstallCounter(self.shards)
        self.s0_commits = _CommitRecorder(sim, cluster.shard("s0"))

    def fire(self, index: int) -> None:
        session_index, kind, key = self.plan[index][1]
        session = self.sessions[session_index]
        if kind == "write":
            future = session.write(key, f"w{index}")
        else:
            future = session.read(key)
        future.add_callback(lambda result: self._done(index, result))

    def _done(self, index: int, result: Any) -> None:
        self.outcomes[index] = (self.sim.now, result)

    def crash_leader(self) -> None:
        agreement = self.cluster.shard("s0").agreement_replicas
        leader = agreement[0].ag.leader_name()
        self.crashed = next(replica for replica in agreement if replica.name == leader)
        self.crashed.crash()

    def recover_leader(self) -> None:
        self.crashed.recover()

    def results(self) -> Results:
        w = self.workload
        violations: List[str] = []
        writes: List[float] = []
        reads: List[float] = []
        in_window: List[float] = []
        completed = 0
        #: key -> [(session, issue index, version)] of completed writes.
        versions: Dict[str, List[Tuple[int, int, int]]] = {}
        for index, (due_ms, (session_index, kind, key)) in enumerate(self.plan):
            outcome = self.outcomes[index]
            if outcome is None or isinstance(outcome[1], (Rejected, Served)):
                violations.append(f"op {index} ({kind} {key}) ended {outcome!r}")
                continue
            done_ms, result = outcome
            if kind == "write":
                if not (isinstance(result, tuple) and result[0] == "ok"):
                    violations.append(f"write {index} to {key} returned {result!r}")
                    continue
                versions.setdefault(key, []).append((session_index, index, result[1]))
            elif not (isinstance(result, tuple) and result[0] in ("value", "missing")):
                violations.append(f"read {index} of {key} returned {result!r}")
                continue
            completed += 1
            latency = done_ms - due_ms
            if w.warmup_ms <= due_ms:
                (writes if kind == "write" else reads).append(latency)
            if w.warmup_ms <= done_ms < w.duration_ms:
                in_window.append(done_ms)
        violations.extend(self._audit_writes(versions))
        slo = self.cluster.middleware_instance("slo-metrics").snapshot()
        offered = sum(slo["offered"].values())
        served = sum(slo["served"].values())
        shed = sum(slo["shed"].values())
        if offered != sum(slo["completed"].values()) + served + shed:
            violations.append(f"slo accounting does not reconcile: {slo}")
        if offered != len(self.plan):
            violations.append(f"slo offered {offered} != planned {len(self.plan)}")

        sim: Dict[str, float] = {"sim_ops_per_s": _throughput(in_window)}
        samples: Dict[str, int] = {}
        _latency_stats("sim", writes, sim, samples)
        _latency_stats("sim_write", writes, sim, samples)
        _latency_stats("sim_read", reads, sim, samples)
        gap = _outage(self.s0_commits.times(), w.crash_at_ms, w.recover_at_ms)
        if gap is None:
            violations.append("no s0 write committed on one side of the outage")
        sim["sim_unavailable_ms"] = gap or 0.0
        counters = self._common_counters(completed)
        counters.update(_spider_counters(self.shards, self.installs, w.duration_ms))
        admission = self.cluster.middleware_instance("admission").snapshot()
        counters["deploy.shed"] = sum(admission["shed"].values())
        ordered = sum(
            count for kind, count in slo["offered"].items() if kind != "weak-read"
        )
        counters["deploy.admitted_ratio"] = _per_op(ordered - counters["deploy.shed"], ordered)
        return Results(
            attempted=len(self.plan),
            completed=completed,
            sim=sim,
            samples=samples,
            counters=counters,
            fingerprint=fingerprint(self.outcomes),
            violations=violations,
        )

    def _audit_writes(self, versions) -> List[str]:
        """Exactly once and per-key FIFO: each key's versions are exactly
        1..n, every execution replica of its shard holds version n with the
        value of write n, and a session's writes to one key take rising
        versions in issue order."""
        violations = []
        for key, entries in sorted(versions.items()):
            taken = sorted(version for _session, _index, version in entries)
            if taken != list(range(1, len(taken) + 1)):
                violations.append(f"{key}: versions {taken} are not 1..{len(taken)}")
            last: Dict[int, int] = {}
            for session_index, _index, version in sorted(entries, key=lambda e: e[1]):
                if version <= last.get(session_index, 0):
                    violations.append(f"{key}: session u{session_index} writes reordered")
                last[session_index] = version
        owner = self.cluster.partitioner.owner
        for shard_id, shard in zip(self.cluster.spec.shard_ids(), self.shards):
            # Each key holds the value of its highest-versioned write.
            mine = {key: entries for key, entries in versions.items() if owner(key) == shard_id}
            expected = (
                {key: f"w{max(entries, key=lambda e: e[2])[1]}" for key, entries in mine.items()},
                {key: len(entries) for key, entries in mine.items()},
            )
            for group in shard.groups.values():
                for replica in group.replicas:
                    if replica.app.snapshot() != expected:
                        violations.append(
                            f"{replica.name}: state differs from the writes acknowledged"
                        )
        return violations


def _outage(times: List[float], crash_ms: float, recover_ms: float) -> Optional[float]:
    """The longest gap between consecutive commits in ``times`` (sorted)
    that overlaps the time the leader is down, ``[crash_ms, recover_ms)``.

    Not only the gap around ``crash_ms`` itself: instances the leader
    committed before it crashed still execute just after, so the outage
    starts once that pipeline has drained.  ``None`` when no commit lies
    before the crash or after the recovery."""
    if not times or times[0] > crash_ms or times[-1] <= recover_ms:
        return None
    return max(
        later - earlier
        for earlier, later in zip(times, times[1:])
        if later > crash_ms and earlier < recover_ms
    )


WORKLOADS = {cls.name: cls for cls in (Fig7Writes, IrmcStream, GeoMixedFailover)}
