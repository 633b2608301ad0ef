"""The stack configurations the chaos campaign attacks, as data over one runner.

Every configuration is one :class:`ChaosConfig` entry in :data:`CONFIGS`:
a builder kind, its knob values, its victim pools, the invariant names it
enforces, and either a fault palette (the ``fault_kinds`` knob, drawn per
seed by :func:`~repro.chaos.schedule.generate_schedule`) or the name of a
hand-shaped schedule in :data:`TARGETED`.  :meth:`ChaosConfig.run` is the
one run skeleton — simulator and network, schedule derivation,
:class:`~repro.chaos.actions.ChaosEngine` install/undo, settle,
``crashed_ever`` and the :class:`CampaignResult` — around four fragments
the builder supplies:

* the **stack builder**: ``consensus`` (PBFT or Raft replicas with their
  delivery drains), ``irmc`` (one RC or SC channel), or ``cluster``
  (every Spider deployment, built through :func:`repro.deploy.build`);
* the **workload driver**: paced ``order()`` ops, the IRMC stream loops,
  or chained think-time writes by clients or sessions (including the
  reshard movers and the handover plan);
* the **post-heal probe** (consensus stacks only);
* the **invariant set** behind the config's declared invariant names.

The configurations:

* ``spider`` — the full deployment (agreement group + two execution
  groups + closed-loop clients); ``pbft`` / ``raft`` — one agreement
  component alone; ``irmc-rc`` / ``irmc-sc`` — one IRMC channel alone.
* Targeted recovery stacks: ``pbft-vc-crash`` (crash a replica
  mid-view-change) and ``spider-cp-crash`` (crash the same execution
  replica twice across checkpoint windows), with seeded jitter.
* ``spider-shard`` — a two-shard :class:`~repro.deploy.ClusterSpec`
  deployment where faults only ever hit one shard and the other owes
  *normal-latency* completion throughout (shard isolation).
* The adversary-and-environment palette: ``pbft-wipe`` (durable-state
  loss and authenticated equivocation), ``raft-skew`` (durable-state loss
  and clock skew), and the targeted ``spider-disk`` (wipe plus checkpoint
  rot), ``irmc-equivocate`` (equivocating sender plus wiped receiver) and
  ``irmc-sc-wipe`` (a receiver, then a sender, reboot empty).
* ``spider-reshard`` — a live range handover under crash, wipe and
  partition, audited by the ``reshard-handover`` cut invariant.

Everything is a pure function of ``(config name, seed)``: victims,
schedules and workloads all derive from string-seeded private RNGs, so a
failing case is reproducible from its one-line ``(name, seed)`` and
shrinkable offline (:mod:`repro.chaos.shrink`).

Adding a configuration takes a :data:`CONFIGS` entry (reusing one of the
builders), optionally a targeted-schedule function registered in
:data:`TARGETED`, and a ``suites/chaos.yaml`` line naming the config and
its invariants.

Replicas that rebooted empty owe the strongest recovery claim: the
:func:`check_recovered_frontier` invariant requires every ever-crashed
(and therefore every ever-wiped) replica to stand at the group's exact
delivery frontier once faults healed.

Design notes on fault budgets: node-targeted faults only ever hit the
victims chosen per run (at most the stack's ``f``).  Crash/recovered
replicas owe **full liveness**: PBFT state transfer, Raft timer re-arm
and the Spider driver-process restart (checkpoint-fetch-on-boot) make
crash/recover symmetric, so completion-after-heal is asserted for
ever-crashed replicas too.  The one recovery-aware twist is at the
Spider layer, where a rejoiner that adopted a checkpoint legitimately
skips the covered operations — there the obligation becomes *state*
completion plus journal-subsequence safety instead of journal-prefix
equality (see :mod:`repro.chaos.invariants`).  The runner's own driver
loops (drains, IRMC sender/receiver loops) are restartable through node
recovery hooks, mirroring how the real replicas respawn their driver
processes.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.app.kvstore import KVStore
from repro.chaos.actions import ChaosEngine, FaultAction
from repro.chaos.invariants import (
    check_client_fifo,
    check_completion,
    check_exactly_once,
    check_journal_agreement,
    check_journal_subsequence,
    check_recovered_frontier,
    check_reshard_handover,
    check_sequence_agreement,
    check_state_completion,
)
from repro.chaos.schedule import ChaosProfile, generate_schedule
from repro.consensus.interface import batch_items
from repro.consensus.pbft import PbftConfig, PbftReplica, is_noop
from repro.consensus.raft import RaftConfig, RaftReplica
from repro.core import SpiderConfig
from repro.deploy import ClusterSpec, GroupSpec, ShardSpec, build
from repro.elastic import validate_moves
from repro.errors import ConfigurationError
from repro.irmc import IrmcConfig, TooOld, make_channel
from repro.net import Network, Site, Topology
from repro.sim import Process, Simulator, sleep
from repro.sim.routing import RoutedNode

__all__ = [
    "CampaignResult",
    "ChaosConfig",
    "CONFIGS",
    "TARGETED",
    "configure",
    "get_harness",
]


@dataclass
class CampaignResult:
    """Outcome of one chaos case: a (config, seed) pair."""

    config: str
    seed: int
    actions: List[FaultAction]
    violations: List[str]
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def fingerprint(self) -> int:
        """Stable checksum of the simulated evidence, for parity checks."""
        return zlib.crc32(
            repr((sorted(self.stats.items()), self.violations)).encode(
                "utf-8", errors="replace"
            )
        )

    def describe(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"[{self.config} seed={self.seed} actions={len(self.actions)}] {status}"


def _names(prefix: str, count: int) -> Tuple[str, ...]:
    return tuple(f"{prefix}{index}" for index in range(count))


def _victims(name: str, seed: int, pool: Sequence[str], count: int) -> Tuple[str, ...]:
    rng = random.Random(f"chaos:{seed}:{name}:victims")
    pool = list(pool)
    return tuple(rng.sample(pool, min(count, len(pool))))


@dataclass(frozen=True)
class ChaosConfig:
    """One stack configuration the campaign can attack, as data.

    ``knobs`` holds every tunable value — run scale, fault palette,
    budget and windows — and a scenario spec may override exactly these
    keys (:func:`configure`).  **Order matters** in ``fault_kinds``: the
    palette draw in :func:`~repro.chaos.schedule.generate_schedule`
    enumerates choices in tuple order, so reordering the kinds reshuffles
    every seeded schedule.  ``invariant_names`` declares the stack's
    obligations in the :data:`~repro.chaos.invariants.INVARIANTS`
    vocabulary; a spec's invariant set must match it exactly.
    """

    name: str
    #: ``consensus``, ``irmc`` or ``cluster``
    builder: str
    #: consensus protocol (``pbft``/``raft``) or IRMC kind (``rc``/``sc``)
    protocol: str = ""
    knobs: Mapping[str, Any] = field(default_factory=dict)
    invariant_names: Tuple[str, ...] = ()
    #: palette victim pools as (RNG tag suffix, node names); one victim
    #: is drawn from each pool per seed (the ``f = 1`` budget)
    victims: Tuple[Tuple[str, Tuple[str, ...]], ...] = ()
    #: a :data:`TARGETED` schedule name; ``None`` draws from the palette
    schedule: Optional[str] = None
    #: the deployment a ``cluster`` config builds
    deployment: Optional[ClusterSpec] = None

    def profile(self, seed: int) -> ChaosProfile:
        knobs = self.knobs
        victims: Tuple[str, ...] = ()
        for tag, pool in self.victims:
            victims += _victims(self.name + tag, seed, pool, 1)
        links: Tuple[Tuple[str, str], ...] = ()
        if "fault_links" in knobs:
            names = [name for _, pool in self.victims for name in pool]
            pairs = [(a, b) for a in names for b in names if a != b]
            link_rng = random.Random(f"chaos:{seed}:{self.name}:links")
            links = tuple(link_rng.sample(pairs, knobs["fault_links"]))
        return ChaosProfile(
            node_kinds=tuple(knobs["fault_kinds"]),
            victims=victims,
            min_start_ms=knobs["min_start_ms"],
            horizon_ms=knobs["horizon_ms"],
            regions=tuple(knobs.get("partition_regions", ())),
            links=links,
            max_actions=knobs["max_actions"],
        )

    def derive_schedule(self, seed: int) -> List[FaultAction]:
        """The seeded fault schedule for this ``(config, seed)`` case."""
        if self.schedule is not None:
            return TARGETED[self.schedule](self, seed)
        return generate_schedule(self.name, seed, self.profile(seed))

    def moves(self) -> List[Tuple[int, int, str, str, int]]:
        """The handover plan, in order: (lo, hi, src, dst, epoch) per move."""
        return [tuple(entry) for entry in self.knobs.get("moves", ())]

    def validate_knobs(self) -> None:
        """Structural validation of knob *values* after overrides landed.

        Replays a ``moves`` handover plan through
        :func:`repro.elastic.validate_moves`, so overlapping ranges,
        unknown shards and epoch regressions fail during
        ``ScenarioSpec.validate()``, before any node exists.
        """
        if "moves" in self.knobs:
            shard_ids = tuple(shard.shard_id for shard in self.deployment.shards)
            validate_moves(shard_ids, self.moves())

    def run(
        self,
        seed: int,
        actions: Optional[Sequence[FaultAction]] = None,
        chaos: bool = True,
    ) -> CampaignResult:
        """Run one case.

        ``actions=None`` derives the seeded schedule; an explicit list
        replays it (the shrinker's trial runs).  ``chaos=False`` runs the
        identical workload without constructing the chaos layer at all —
        the byte-parity reference for the no-fault case.
        """
        sim = Simulator(seed=seed)
        network = Network(sim, Topology(), jitter=0.0)
        stack = _BUILDERS[self.builder](self, sim, network)
        if actions is None and chaos:
            actions = self.derive_schedule(seed)
        actions = list(actions or [])
        engine = None
        if chaos:
            engine = ChaosEngine(
                sim,
                network,
                {node.name: node for node in stack.nodes},
                seed_tag=f"chaos:{seed}:{self.name}",
            )
            engine.install(actions)
        stack.probe(actions)
        sim.run(until=self.knobs["settle_ms"], max_events=stack.max_events)
        if engine is not None:
            engine.undo_all()
        crashed_ever = {node.name for node in stack.nodes if node.crash_count > 0}
        stats = stack.stats()
        stats["crashed_ever"] = sorted(crashed_ever)
        stats["events"] = sim.events_processed
        return CampaignResult(self.name, seed, actions, stack.check(crashed_ever), stats)


@dataclass
class _Stack:
    """A built stack with its workload scheduled, as the run skeleton sees it."""

    #: fault-eligible nodes, in registration order
    nodes: List[Any]
    #: the invariant set: ``crashed_ever`` -> violations
    check: Callable[[set], List[str]]
    #: the builder's evidence for the result's stats
    stats: Callable[[], Dict[str, Any]]
    #: the post-heal probe, scheduled once the fault windows are known
    probe: Callable[[List[FaultAction]], None] = lambda actions: None
    max_events: int = 6_000_000


# ======================================================================
# consensus: PBFT or Raft alone, paced order() ops, post-heal probe
# ======================================================================
@dataclass(frozen=True)
class _Protocol:
    """What the consensus builder needs to know about one protocol."""

    names: Tuple[str, ...]
    replicas: Callable[[List[Any]], List[Any]]
    first_op_ms: float
    probe_after_ms: float
    probe_every_ms: float
    #: (replica, seqs to skip) -> (seq, payload) it delivered, from its log
    committed: Callable[[Any, set], List[Tuple[int, Any]]]
    frontier: str
    #: (stat name, replica attribute) reported as the max over replicas
    gauge: Tuple[str, str]


def _pbft_replicas(nodes):
    config = PbftConfig(view_timeout_ms=500.0)
    return [PbftReplica(node, "pbft", nodes, config) for node in nodes]


def _raft_replicas(nodes):
    return [RaftReplica(node, "raft", nodes, RaftConfig()) for node in nodes]


def _pbft_committed(replica, skip):
    slots = replica.log.slots
    return [
        (seq, slots[seq].pre_prepare.payload)
        for seq in sorted(slots)
        if slots[seq].delivered and seq not in skip
    ]


def _raft_committed(replica, skip):
    return [
        (index, replica.log[index - replica.offset - 1].payload)
        for index in range(replica.low_water, replica.delivered_index + 1)
        if index > replica.offset and index not in skip
    ]


_PBFT_NODES = _names("r", 4)
_RAFT_NODES = _names("n", 3)

_PROTOCOLS = {
    "pbft": _Protocol(
        names=_PBFT_NODES, replicas=_pbft_replicas,
        first_op_ms=100.0, probe_after_ms=500.0, probe_every_ms=200.0,
        committed=_pbft_committed, frontier="delivered_seq", gauge=("view", "view"),
    ),
    "raft": _Protocol(
        names=_RAFT_NODES, replicas=_raft_replicas,
        first_op_ms=1_000.0, probe_after_ms=1_000.0, probe_every_ms=300.0,
        committed=_raft_committed, frontier="delivered_index", gauge=("terms", "term"),
    ),
}


def _consensus(cfg: ChaosConfig, sim, network) -> _Stack:
    """Replicas in one region ordering a broadcast workload."""
    knobs = cfg.knobs
    protocol = _PROTOCOLS[cfg.protocol]
    nodes = [
        network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
        for index, name in enumerate(protocol.names)
    ]
    replicas = protocol.replicas(nodes)
    delivered: Dict[str, List[Tuple[int, Any]]] = {n.name: [] for n in nodes}
    drains: Dict[str, Process] = {}

    def drain(replica):
        while True:
            seq, payload = yield replica.next_delivery()
            delivered[replica.node.name].append((seq, payload))

    def start_drain(node, replica):
        drains[node.name] = Process(
            sim, drain(replica), node=node, name=f"drain-{node.name}"
        )

    def restart_drain(node, replica):
        # The old drain's in-flight resumption died with the crash (or
        # still holds a live continuation if the crash fell between
        # resumptions) — stop it either way, reconcile deliveries whose
        # resolution was dropped with the CPU queue from the replica's
        # own log, and respawn the driver, mirroring the Spider-layer
        # process restart.
        drains[node.name].stop()
        replica.reset_delivery()
        journal = delivered[node.name]
        skip = {seq for seq, _ in journal} | set(replica.queue.pending_seqs())
        journal.extend(protocol.committed(replica, skip))
        journal.sort(key=lambda pair: pair[0])
        start_drain(node, replica)

    for node, replica in zip(nodes, replicas):
        start_drain(node, replica)
        node.add_recovery_hook(
            lambda node=node, replica=replica: restart_drain(node, replica)
        )
        # The delivery journal models the replica's on-disk applied
        # log: a wipe destroys it, and the rebooted replica must
        # re-earn every entry through checkpoint install / log
        # replication + replay (exactly-once still holds because the
        # pre-wipe journal is gone with the disk it lived on).
        node.add_wipe_hook(lambda name=node.name: delivered[name].clear())

    expected = [("op", index) for index in range(knobs["ops"])]
    for index, payload in enumerate(expected):
        at = protocol.first_op_ms + index * knobs["op_interval_ms"]
        for replica in replicas:
            sim.schedule_at(at, replica.order, payload)

    probes = [("probe", index) for index in range(3)]

    def probe(actions):
        # Probe traffic after every fault window: commits past the last
        # faulted slot are what trigger gap retransmission on laggards.
        start = max([knobs["horizon_ms"]] + [a.end_ms for a in actions])
        start += protocol.probe_after_ms
        for index, payload in enumerate(probes):
            for replica in replicas:
                sim.schedule_at(
                    start + index * protocol.probe_every_ms, replica.order, payload
                )

    def check(crashed_ever):
        names = [n.name for n in nodes]
        flat = {
            name: [
                item
                for _, payload in delivered[name]
                for item in batch_items(payload)
                if not is_noop(item)
            ]
            for name in names
        }
        violations = check_sequence_agreement(delivered, names)
        violations += check_exactly_once(flat, names)
        # Crash/recovered replicas rejoin via state transfer (PBFT) or
        # timer re-arm + AppendEntries resync (Raft; probe traffic
        # guarantees post-heal replication), so *everyone* owes the
        # complete history once faults healed — no exemption.
        violations += check_completion(expected + probes, flat)
        # Ever-crashed (including ever-wiped) replicas must additionally
        # stand at the group's exact delivery frontier: checkpoint-free
        # recovery is only done when the whole suffix replayed.
        violations += check_recovered_frontier(
            {r.node.name: getattr(r, protocol.frontier) for r in replicas},
            obligated=crashed_ever,
            where=f"{cfg.protocol} replica",
        )
        return violations

    def stats():
        stat, attribute = protocol.gauge
        return {
            "delivered": {n.name: delivered[n.name] for n in nodes},
            stat: max(getattr(r, attribute) for r in replicas),
        }

    return _Stack(nodes, check, stats, probe)


# ======================================================================
# irmc: one channel, 3 senders (Virginia) -> 4 receivers (Oregon)
# ======================================================================
_IRMC_SENDERS = _names("s", 3)
_IRMC_RECEIVERS = _names("r", 4)


def _irmc(cfg: ChaosConfig, sim, network) -> _Stack:
    """One IRMC channel; two subchannels probe the two liveness contracts.

    * ``"bulk"`` — capacity covers the whole stream, so no position is
      ever flow-controlled away: every honest receiver must eventually
      deliver *everything* (heartbeat retransmission heals loss).
    * ``"s"`` — a sliding window the senders advance as they go, exactly
      like the request channel under client progress: up to
      ``n_r - (f_r + 1)`` receivers may legitimately be skipped past
      positions via ``TooOld`` (in Spider they then fetch a checkpoint),
      but every honest receiver must keep *progressing* to the end of the
      stream — a receiver wedged forever on one position is a liveness
      bug even when skipping is allowed.
    """
    knobs = cfg.knobs
    positions = knobs["positions"]
    sender_nodes = [
        network.register(RoutedNode(sim, name, Site("virginia", index + 1)))
        for index, name in enumerate(_IRMC_SENDERS)
    ]
    receiver_nodes = [
        network.register(RoutedNode(sim, name, Site("oregon", index + 1)))
        for index, name in enumerate(_IRMC_RECEIVERS)
    ]
    # ``bulk`` uses the window-covers-everything configuration of
    # Spider's commit channels (capacity >= checkpoint interval);
    # ``s`` exercises the sliding-window flow-control paths.
    config = IrmcConfig(
        fs=1,
        fr=1,
        capacity=positions,
        progress_interval_ms=100.0,
        collector_timeout_ms=300.0,
        move_heartbeat_ms=250.0,
    )
    senders, receivers = make_channel(
        cfg.protocol, "ch", sender_nodes, receiver_nodes, config
    )
    received: Dict[str, List[Tuple[int, Any]]] = {n: [] for n in _IRMC_RECEIVERS}
    progressed: Dict[str, List[Tuple[int, Any]]] = {n: [] for n in _IRMC_RECEIVERS}
    finished: Dict[str, int] = {}
    #: highest position each sender loop completed (restart cursor)
    sent_upto: Dict[str, int] = {name: 0 for name in _IRMC_SENDERS}
    procs: Dict[Tuple[str, str], Process] = {}

    def sender_loop(endpoint, name, start):
        for position in range(start, positions + 1):
            endpoint.move_window("s", max(1, position - knobs["capacity"] + 1))
            endpoint.send("s", position, ("m", position))
            endpoint.send("bulk", position, ("b", position))
            sent_upto[name] = position
            yield sleep(knobs["send_interval_ms"])

    def bulk_loop(endpoint, name, start):
        for position in range(start, positions + 1):
            result = yield endpoint.receive("bulk", position)
            if isinstance(result, TooOld):  # cannot happen: full window
                continue
            received[name].append((position, result))

    def window_loop(endpoint, name, start):
        position = start
        while position <= positions:
            result = yield endpoint.receive("s", position)
            if isinstance(result, TooOld):
                position = max(position + 1, result.new_start)
                continue
            progressed[name].append((position, result))
            position += 1
        finished[name] = position

    def spawn(tag, loop, endpoint, name, start):
        procs[(tag, name)] = Process(
            sim, loop(endpoint, name, start), node=endpoint.node, name=f"{tag}-{name}"
        )

    def restart_sender(endpoint, name):
        # Driver-process restart, runner edition: resume the stream
        # where the dead loop left off (loop bodies are atomic on the
        # node CPU, so the cursor is exact).
        procs[("tx", name)].stop()
        spawn("tx", sender_loop, endpoint, name, sent_upto[name] + 1)

    def restart_receiver(endpoint, name):
        # Re-reads land on the endpoint's retained ``_delivered`` book
        # (bulk never moves its window), so resolutions lost with the
        # crash are recovered instantly; the sliding-window loop's
        # TooOld handling absorbs any window movement it slept through.
        procs[("rxb", name)].stop()
        spawn("rxb", bulk_loop, endpoint, name,
              received[name][-1][0] + 1 if received[name] else 1)
        if name not in finished:
            procs[("rxw", name)].stop()
            spawn("rxw", window_loop, endpoint, name,
                  progressed[name][-1][0] + 1 if progressed[name] else 1)

    for name, endpoint in senders.items():
        spawn("tx", sender_loop, endpoint, name, 1)
        endpoint.node.add_recovery_hook(
            lambda endpoint=endpoint, name=name: restart_sender(endpoint, name)
        )
    for name, endpoint in receivers.items():
        spawn("rxb", bulk_loop, endpoint, name, 1)
        spawn("rxw", window_loop, endpoint, name, 1)
        endpoint.node.add_recovery_hook(
            lambda endpoint=endpoint, name=name: restart_receiver(endpoint, name)
        )

    def check(crashed_ever):
        violations = []
        # Integrity: anything delivered anywhere must be exactly what the
        # honest senders submitted at that position, on both subchannels.
        for book, marker in ((received, "b"), (progressed, "m")):
            for name, entries in book.items():
                for position, payload in entries:
                    if payload != (marker, position):
                        violations.append(
                            f"safety/integrity: {name} got {payload!r} "
                            f"at position {position}"
                        )
        observers = {
            name: [p for p, _ in entries] for name, entries in received.items()
        }
        violations += check_exactly_once(observers, received)
        # Full-window channel: every honest receiver — crash/recovered ones
        # included, their loops respawn and re-read the retained delivery
        # book — must deliver everything.
        violations += check_completion(
            list(range(1, positions + 1)), observers, where="receiver"
        )
        # Sliding-window channel: every honest receiver must reach the end
        # of the stream (delivering or skipping), never wedge.
        for name in _IRMC_RECEIVERS:
            if name not in finished:
                last = progressed[name][-1][0] if progressed[name] else 0
                violations.append(
                    f"liveness/progress: receiver {name} wedged after "
                    f"position {last} on the sliding-window subchannel"
                )
        # Bounded bookkeeping under the overflow cap (the Byzantine-flood
        # memory promise in irmc/base.py).
        cap = config.capacity * config.overflow_factor
        for name, endpoint in receivers.items():
            for book_name in ("_votes", "_payloads"):
                book = getattr(endpoint, book_name, None)
                if not book:
                    continue
                for subchannel, held in book.items():
                    if len(held) > cap:
                        violations.append(
                            f"memory/bounded: {name}.{book_name}[{subchannel!r}] "
                            f"holds {len(held)} > cap {cap}"
                        )
        return violations

    def stats():
        return {"received": received, "progressed": progressed}

    return _Stack(sender_nodes + receiver_nodes, check, stats)


# ======================================================================
# cluster: Spider deployments, chained think-time writes
# ======================================================================
class _JournalKVStore(KVStore):
    """KVStore journaling every applied operation, for journal agreement."""

    def __init__(self):
        super().__init__()
        self.journal: List[Any] = []

    def apply(self, operation):
        self.journal.append(operation)
        return super().apply(operation)


def _deployment(*shards: ShardSpec, config: Optional[SpiderConfig] = None) -> ClusterSpec:
    return ClusterSpec(
        shards=shards, config=config or SpiderConfig(), app_factory=_JournalKVStore
    )


def _check_spider_group_invariants(
    groups, crashed_ever, expected_writes, expected_state
) -> List[str]:
    """The recovery-aware per-group obligations shared by every Spider
    config: prefix agreement + exactly-once for never-crashed replicas,
    subsequence safety for checkpoint-adopting rejoiners, journal
    completion for the former and *state* completion for everyone."""
    violations: List[str] = []
    for group in groups:
        journals = {
            replica.name: [op for op in replica.app.journal if op[0] == "put"]
            for replica in group.replicas
        }
        never_crashed = [n for n in journals if n not in crashed_ever]
        recovered = [n for n in journals if n in crashed_ever]
        violations += check_journal_agreement(journals, never_crashed)
        violations += check_exactly_once(journals, journals)
        if recovered:
            reference_pool = never_crashed or list(journals)
            reference = max((journals[n] for n in reference_pool), key=len)
            violations += check_journal_subsequence(
                reference,
                {n: journals[n] for n in recovered},
                where=f"{group.group_id} recovered replica",
            )
        violations += check_completion(
            expected_writes,
            {n: journals[n] for n in never_crashed},
            where=f"{group.group_id} replica",
        )
        violations += check_state_completion(
            expected_state,
            {replica.name: replica.app.snapshot()[0] for replica in group.replicas},
            where=f"{group.group_id} replica",
        )
    return violations


def _check_agreement_frontier(agreement_replicas, label: str = "") -> List[str]:
    """After heal + settle every agreement replica of one shard must sit
    at the same consensus frontier (state transfer + gap fetch + cp-ag
    adoption close any hole a crash, wipe or partition opened).  The
    Spider form of the general frontier invariant, with *every* replica
    obligated — "all equal" and "all at the max" coincide."""
    return check_recovered_frontier(
        {replica.name: replica.ag.delivered_seq for replica in agreement_replicas},
        where=f"agreement replica{label}",
    )


def _check_finished(completions, count: int, kind: str) -> List[str]:
    return [
        f"liveness/{kind}: {name} completed {len(done)}/{count} requests"
        for name, done in completions.items()
        if len(done) < count
    ]


def _chained_writes(sim, writers, count, think_ms, write, record):
    """Each writer issues ``count`` writes, the next one ``think_ms``
    after the previous reply.  The think time paces the workload across
    the whole fault horizon so fault windows always hit in-flight traffic
    (a workload that drains before the first window opens would make
    every invariant vacuously green)."""
    completions: Dict[str, List[Tuple]] = {writer.name: [] for writer in writers}

    def issue(writer, index=0):
        if index >= count:
            return
        issued_at = sim.now
        future = write(writer, index)
        future.add_callback(
            lambda result: (
                completions[writer.name].append(record(index, issued_at, result)),
                sim.schedule(think_ms, issue, writer, index + 1),
            )
        )

    for writer in writers:
        sim.schedule_at(200.0, issue, writer)
    return completions


def _cluster(cfg: ChaosConfig, sim, network) -> _Stack:
    cluster = build(sim, cfg.deployment, network=network)
    for shard in cluster.shards.values():
        # The execution journal is observer evidence collected *on* the
        # replica: a disk wipe destroys it with everything else, and the
        # rebooted replica only re-earns entries it actually re-applies
        # (checkpoint-skipped operations legitimately never reappear —
        # the subsequence/state obligations cover them).  Registered
        # after the replica's own wipe hook, so the pristine-app restore
        # runs first and the journal clear wins.
        for group in shard.groups.values():
            for replica in group.replicas:
                replica.add_wipe_hook(lambda app=replica.app: app.journal.clear())
    # The single-shard ``spider`` family drives raw clients homed on its
    # groups (a ``clients`` knob); sharded deployments drive sessions.
    drive = _client_writes if "clients" in cfg.knobs else _session_writes
    check, stats = drive(cfg, sim, cluster)
    return _Stack(cluster.all_nodes, check, stats, max_events=12_000_000)


def _client_writes(cfg: ChaosConfig, sim, cluster):
    """Raw closed-loop clients homed on the groups of a one-shard cluster."""
    knobs = cfg.knobs
    count = knobs["requests_per_client"]
    system = cluster.system
    regions = {group.group_id: group.region for group in cfg.deployment.shards[0].groups}
    homes = ["g0", "g0", "g1"]
    clients = [
        system.make_client(f"c{i}", regions[homes[i]], group_id=homes[i])
        for i in range(knobs["clients"])
    ]
    completions = _chained_writes(
        sim, clients, count, knobs["think_ms"],
        lambda client, index: client.write(("put", f"w-{client.name}-{index}", index)),
        lambda index, issued_at, result: (index, result),
    )

    def check(crashed_ever):
        expected_writes = [
            ("put", f"w-{client.name}-{index}", index)
            for client in clients
            for index in range(count)
        ]
        expected_state = {
            f"w-{client.name}-{index}": index
            for client in clients
            for index in range(count)
        }
        violations = _check_spider_group_invariants(
            system.groups.values(), crashed_ever, expected_writes, expected_state
        )
        violations += check_client_fifo(completions)
        # Recovered agreement replicas owe full liveness too.
        violations += _check_agreement_frontier(system.agreement_replicas)
        violations += _check_finished(completions, count, "client")
        return violations

    def stats():
        return {
            "completions": completions,
            "view": max(r.ag.view for r in system.agreement_replicas),
        }

    return check, stats


def _keys_in_slots(range_map, wanted_slots, count, prefix) -> List[str]:
    """The first ``count`` ``{prefix}{i}`` keys hashing into
    ``wanted_slots`` — deterministic in the table alone."""
    keys: List[str] = []
    index = 0
    while len(keys) < count:
        key = f"{prefix}{index}"
        index += 1
        if range_map.slot_of(key) in wanted_slots:
            keys.append(key)
    return keys


def _session_writes(cfg: ChaosConfig, sim, cluster):
    """Virginia sessions per shard, plus — when the config carries a
    ``moves`` plan — mover sessions and the live handover."""
    knobs = cfg.knobs
    per_session = knobs["requests_per_session"]
    shard_ids = list(cluster.shards)
    moves = cfg.moves()
    initial_map = cluster.partitioner.range_map
    moving_slots = {
        slot for lo, hi, _src, _dst, _epoch in moves for slot in range(lo, hi)
    }
    sessions = []
    home: Dict[str, str] = {}
    keys: Dict[str, List[str]] = {}
    for shard_id in shard_ids:
        if moves:
            # Stationary sessions write keys that never change owner.
            stationary = _keys_in_slots(
                initial_map,
                set(initial_map.slots_of(shard_id)) - moving_slots,
                knobs["sessions_per_shard"] * per_session,
                f"{shard_id}:k",
            )
        for index in range(knobs["sessions_per_shard"]):
            session = cluster.session(f"u-{shard_id}-{index}", "virginia")
            sessions.append(session)
            home[session.name] = shard_id
            if moves:
                keys[session.name] = stationary[
                    index * per_session:(index + 1) * per_session
                ]
            else:
                # Disjoint per-session key pools: expected_state below
                # maps each key to exactly one session's write, so the
                # invariant holds however concurrent sessions interleave.
                keys[session.name] = cluster.partitioner.keys_for(
                    shard_id, per_session, prefix=f"{shard_id}:{index}:k"
                )
    movers: List[str] = []
    if moves:
        # Movers hammer one key each *inside* the moving range, so their
        # write streams cross the ownership cut mid-flight.
        moved_keys = _keys_in_slots(initial_map, moving_slots, knobs["movers"], "m:")
        for index in range(knobs["movers"]):
            session = cluster.session(f"mover-{index}", "virginia")
            sessions.append(session)
            movers.append(session.name)
            home[session.name] = moves[-1][3]  # final owner
            keys[session.name] = [moved_keys[index]] * per_session
    #: (index, issued_at, done_at) per session, for FIFO + latency
    completions = _chained_writes(
        sim, sessions, per_session, knobs["think_ms"],
        lambda session, index: session.write(
            keys[session.name][index], f"{session.name}:{index}"
        ),
        lambda index, issued_at, _result: (index, issued_at, sim.now),
    )

    # The handover plan runs sequentially from move_at_ms; the chaos
    # schedule is aimed at its windows.
    handover: Dict[str, Any] = {"start": None, "end": None}

    def run_move(index: int) -> None:
        if handover["start"] is None:
            handover["start"] = sim.now
        if index >= len(moves):
            handover["end"] = sim.now
            return
        lo, hi, src, dst, _epoch = moves[index]
        cluster.move_range(lo, hi, src, dst).add_callback(
            lambda _map: run_move(index + 1)
        )

    if moves:
        sim.schedule_at(knobs["move_at_ms"], run_move, 0)

    def check(crashed_ever):
        violations: List[str] = []
        dst_shard = moves[-1][3] if moves else None
        last = per_session - 1
        # Per-shard expectations cover the stationary writes; migrated
        # keys are audited separately across the cut.  The destination's
        # final state additionally owes every mover's last write.
        for shard_id in shard_ids:
            shard = cluster.shard(shard_id)
            mine = [
                s.name for s in sessions
                if home[s.name] == shard_id and s.name not in movers
            ]
            expected_writes = [
                ("put", keys[name][index], f"{name}:{index}")
                for name in mine
                for index in range(per_session)
            ]
            expected_state = {
                keys[name][index]: f"{name}:{index}"
                for name in mine
                for index in range(per_session)
            }
            if shard_id == dst_shard:
                expected_state.update(
                    {keys[name][last]: f"{name}:{last}" for name in movers}
                )
            violations += _check_spider_group_invariants(
                shard.groups.values(), crashed_ever, expected_writes, expected_state
            )
            violations += _check_agreement_frontier(
                shard.agreement_replicas, label=f"[{shard_id}]"
            )
        if moves:
            violations += _check_handover(
                cluster, crashed_ever, moves, handover,
                {keys[name][0]: [f"{name}:{i}" for i in range(per_session)]
                 for name in movers},
            )
        violations += check_client_fifo(
            {name: [(i, done) for i, _, done in comps] for name, comps in completions.items()}
        )
        violations += _check_finished(completions, per_session, "session")
        budget = knobs.get("latency_budget_ms")
        if budget is not None:
            # Non-interference: the unfaulted shard runs at normal latency
            # even while shard sa's fault windows are open.
            for name, comps in completions.items():
                if home[name] != "sb":
                    continue
                for index, issued_at, done_at in comps:
                    latency = done_at - issued_at
                    if latency > budget:
                        violations.append(
                            "liveness/shard-isolation: unfaulted shard op "
                            f"{name}#{index} took {latency:.0f} ms "
                            f"(> {budget:.0f} ms budget)"
                        )
        return violations

    def stats():
        evidence: Dict[str, Any] = {"completions": completions}
        if moves:
            evidence["handover"] = dict(handover)
            evidence["epoch"] = cluster.partitioner.epoch
        return evidence

    return check, stats


def _check_handover(cluster, crashed_ever, moves, handover, expected_cut) -> List[str]:
    """The cross-cut audit: per migrated key, source-journal prefix +
    destination-journal suffix == the issued sequence, the source
    replicas dropped the range, and the plan ran to its final epoch."""
    src_shard, dst_shard = moves[0][2], moves[-1][3]

    def put_journals(shard_id):
        return {
            replica.name: [op for op in replica.app.journal if op[0] == "put"]
            for group in cluster.shard(shard_id).groups.values()
            for replica in group.replicas
            if replica.name not in crashed_ever
        }

    violations = check_reshard_handover(
        expected_cut,
        put_journals(src_shard),
        put_journals(dst_shard),
        {
            replica.name: replica.app.snapshot()[0]
            for group in cluster.shard(src_shard).groups.values()
            for replica in group.replicas
        },
    )
    if handover["end"] is None:
        violations.append(
            "liveness/reshard: the handover plan did not complete "
            f"(started at {handover['start']})"
        )
    final_epoch = cluster.partitioner.epoch
    if final_epoch != moves[-1][4]:
        violations.append(
            f"safety/reshard: routing table sits at epoch {final_epoch}, "
            f"plan ends at epoch {moves[-1][4]}"
        )
    return violations


_BUILDERS: Dict[str, Callable[[ChaosConfig, Any, Any], _Stack]] = {
    "consensus": _consensus,
    "irmc": _irmc,
    "cluster": _cluster,
}


# ======================================================================
# Targeted schedules: hand-shaped windows with seeded jitter
# ======================================================================
def _pbft_vc_crash(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Crash a replica *while the group is mid-view-change*.

    The view-0 leader is silenced long enough for its peers' view timers
    (500 ms here) to fire, and a seeded non-leader victim crashes inside
    that view-change turbulence.  Both windows heal before the horizon;
    the recovered replica must re-enter the — possibly several views
    later — protocol via state transfer and still deliver the complete
    workload.  The overlap deliberately exceeds ``f = 1`` benign faults
    (one silenced, one crashed): progress may fully stall inside the
    windows, which is exactly what makes completion-after-heal a recovery
    claim rather than a masking claim.
    """
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    names = _PBFT_NODES
    leader = names[0]  # leader of view 0
    victim = names[1 + rng.randrange(len(names) - 1)]
    silence_at = round(cfg.knobs["min_start_ms"] + rng.random() * 1_000.0, 3)
    silence_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
    # The crash window opens right as the view change kicks off
    # (view_timeout_ms = 500 in the PBFT stack).
    crash_at = round(silence_at + 300.0 + rng.random() * 700.0, 3)
    crash_dur = round(1_500.0 + rng.random() * 2_500.0, 3)
    return [
        FaultAction(kind="silence", target=leader, start_ms=silence_at, duration_ms=silence_dur),
        FaultAction(kind="crash", target=victim, start_ms=crash_at, duration_ms=crash_dur),
    ]


def _irmc_equivocate(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Authenticated equivocation by a sender, plus a wiped receiver.

    One seeded sender turns Byzantine and equivocates: each ``SendMsg``
    carries a per-receiver payload variant behind a *valid* signature, so
    authentication alone cannot unmask it — and because a receiver
    counts only the first copy per sender, the forged votes are
    permanent.  That consumes the full ``f_s = 1`` budget: the
    ``f_s + 1 = 2`` matching copies the two correct senders supply are
    exactly enough to deliver the true payload at every receiver.
    Overlapping it, one seeded receiver is wiped — vote books, delivery
    cursors and retirement tombstones all gone — and must rebuild from
    live retransmissions without ever delivering a forged variant or a
    duplicate.
    """
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    liar = _IRMC_SENDERS[rng.randrange(3)]
    victim = _IRMC_RECEIVERS[rng.randrange(4)]
    lie_at = round(cfg.knobs["min_start_ms"] + rng.random() * 1_000.0, 3)
    lie_dur = round(2_000.0 + rng.random() * 2_500.0, 3)
    wipe_at = round(lie_at + 400.0 + rng.random() * 1_200.0, 3)
    wipe_dur = round(1_200.0 + rng.random() * 1_800.0, 3)
    fraction = round(0.6 + rng.random() * 0.4, 4)
    return [
        FaultAction(kind="equivocate", target=liar, start_ms=lie_at, duration_ms=lie_dur, param=fraction),
        FaultAction(kind="wipe", target=victim, start_ms=wipe_at, duration_ms=wipe_dur),
    ]


def _irmc_sc_wipe(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Durable-state loss on both sides of an IRMC-SC channel.

    First a receiver is wiped (its share buffers, collector-progress
    gossip and delivery cursors vanish; it rebuilds from peer Progress
    exchange and sender retransmission), then — after the first window
    healed — a sender (its signature-share bundles and collector state
    vanish; it cannot re-assemble old bundles because correct peers only
    share shares once, so receiver-side collector failover must route
    around the hole while the other ``f_s + 1`` senders keep the stream
    complete).  The windows are disjoint in time, so each stays within
    the ``f_s = f_r = 1`` budget.
    """
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    rx_victim = _IRMC_RECEIVERS[rng.randrange(4)]
    tx_victim = _IRMC_SENDERS[rng.randrange(3)]
    rx_at = round(cfg.knobs["min_start_ms"] + rng.random() * 1_000.0, 3)
    rx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
    tx_at = round(rx_at + rx_dur + 300.0 + rng.random() * 700.0, 3)
    tx_dur = round(1_200.0 + rng.random() * 1_500.0, 3)
    return [
        FaultAction(kind="wipe", target=rx_victim, start_ms=rx_at, duration_ms=rx_dur),
        FaultAction(kind="wipe", target=tx_victim, start_ms=tx_at, duration_ms=tx_dur),
    ]


def _spider_cp_crash(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Crash an execution replica across checkpoint windows — twice.

    Tightened checkpoint cadence (``ke = 4``) and a minimal commit-channel
    window (capacity 4) make the group checkpoint every few requests and
    move the window right behind, so a multi-second crash almost surely
    straddles checkpoint generation *and* forces the rejoiner through the
    ``TooOld`` → checkpoint-fetch-on-boot path.  The second window makes
    the same replica crash/recover twice within one run — the respawned
    driver processes must survive being killed again.
    """
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    victim = f"g0-e{rng.randrange(3)}"
    first_at = round(cfg.knobs["min_start_ms"] + rng.random() * 2_000.0, 3)
    first_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    second_at = round(first_at + first_dur + 400.0 + rng.random() * 800.0, 3)
    second_dur = round(1_500.0 + rng.random() * 2_000.0, 3)
    return [
        FaultAction(kind="crash", target=victim, start_ms=first_at, duration_ms=first_dur),
        FaultAction(kind="crash", target=victim, start_ms=second_at, duration_ms=second_dur),
    ]


def _spider_disk(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Storage catastrophe inside one Spider group: wipe plus bit rot.

    Against the tightened-checkpoint deployment (``ke = 4``, commit
    window 4), one execution replica of ``g0`` is *wiped* — it reboots
    with a genesis application and must install the latest group
    checkpoint before it can touch the commit stream.  While it is down,
    a *different* ``g0`` execution replica has its checkpoint store
    corrupted (seeded bit rot / truncation), so the rejoiner's fetch may
    well land on a peer holding damaged state: the digest check at
    serve/load time must detect the rot, discard it and fall back to a
    clean peer rather than install garbage.  A later window wipes one
    agreement replica, which must rebuild ordering state from the
    agreement checkpoint protocol.
    """
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    exec_victim = f"g0-e{rng.randrange(3)}"
    others = [f"g0-e{i}" for i in range(3) if f"g0-e{i}" != exec_victim]
    rotten = others[rng.randrange(2)]
    ag_victim = f"ag{rng.randrange(4)}"
    wipe_at = round(cfg.knobs["min_start_ms"] + rng.random() * 2_000.0, 3)
    wipe_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
    # Rot the peer mid-wipe so the rejoiner's checkpoint fetch races
    # the damage; the corruption itself is instantaneous (undo no-op).
    rot_at = round(wipe_at + wipe_dur * 0.5, 3)
    ag_at = round(wipe_at + wipe_dur + 500.0 + rng.random() * 1_000.0, 3)
    ag_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    return [
        FaultAction(kind="wipe", target=exec_victim, start_ms=wipe_at, duration_ms=wipe_dur),
        FaultAction(kind="corrupt_cp", target=rotten, start_ms=rot_at, duration_ms=100.0),
        FaultAction(kind="wipe", target=ag_victim, start_ms=ag_at, duration_ms=ag_dur),
    ]


def _spider_reshard(cfg: ChaosConfig, seed: int) -> List[FaultAction]:
    """Attack the handover itself: a crash or disk wipe of one ``a0``
    execution replica straddling the transfer window, plus a partition
    of Oregon opening across the epoch bump (the install phase is
    intra-Oregon and completes inside the partition; Virginia sessions
    retry across it)."""
    rng = random.Random(f"chaos:{seed}:{cfg.name}:windows")
    move_at = cfg.knobs["move_at_ms"]
    victim = f"a0-e{rng.randrange(3)}"
    kind = ("crash", "wipe")[rng.randrange(2)]
    # The node fault straddles the transfer window on the source side.
    hit_at = round(move_at - 600.0 + rng.random() * 1_200.0, 3)
    hit_dur = round(2_000.0 + rng.random() * 2_000.0, 3)
    # The partition opens across the epoch bump and severs Virginia
    # from the destination shard (the handover itself completes in
    # milliseconds, so the window must open at or just before kickoff
    # to actually span it).
    part_at = round(move_at - 250.0 + rng.random() * 500.0, 3)
    part_dur = round(2_500.0 + rng.random() * 2_500.0, 3)
    return [
        FaultAction(kind=kind, target=victim, start_ms=hit_at, duration_ms=hit_dur),
        FaultAction(kind="partition", target="oregon", start_ms=part_at, duration_ms=part_dur),
    ]


#: Targeted schedule name -> ``(config, seed) -> actions``.
TARGETED: Dict[str, Callable[[ChaosConfig, int], List[FaultAction]]] = {
    "pbft-vc-crash": _pbft_vc_crash,
    "irmc-equivocate": _irmc_equivocate,
    "irmc-sc-wipe": _irmc_sc_wipe,
    "spider-cp-crash": _spider_cp_crash,
    "spider-disk": _spider_disk,
    "spider-reshard": _spider_reshard,
}


# ======================================================================
# The fourteen configurations
# ======================================================================
_CONSENSUS_INVARIANTS = (
    "sequence-agreement", "exactly-once", "completion", "recovered-frontier",
)
_SPIDER_INVARIANTS = (
    "journal-agreement", "exactly-once", "journal-subsequence", "completion",
    "state-completion", "client-fifo", "recovered-frontier",
)
_BENIGN = ("crash", "silence", "delay", "drop", "duplicate")

_PBFT = dict(ops=18, op_interval_ms=250.0, min_start_ms=400.0, horizon_ms=8_000.0)
# The first Raft election settles before any fault window opens.
_RAFT = dict(ops=15, op_interval_ms=300.0, min_start_ms=1_200.0, horizon_ms=8_000.0)
_IRMC = dict(
    positions=24, send_interval_ms=150.0, capacity=4,
    min_start_ms=300.0, settle_ms=30_000.0,
)
_IRMC_PALETTE = dict(
    horizon_ms=6_000.0, fault_kinds=_BENIGN, max_actions=5,
    partition_regions=("virginia",),  # WAN disruption between the groups
)
_IRMC_VICTIMS = (("", _IRMC_SENDERS), (":rx", _IRMC_RECEIVERS))
_SPIDER = dict(
    clients=3, requests_per_client=8, think_ms=1_600.0,
    min_start_ms=1_000.0, settle_ms=75_000.0,
)
_SPIDER_DEPLOYMENT = ShardSpec(
    "s0", groups=(GroupSpec("g0", "virginia"), GroupSpec("g1", "tokyo"))
)
# ke = 4 and a commit window of 4 make the group checkpoint every few
# requests and move the window right behind.
_TIGHT_CHECKPOINTS = SpiderConfig(ka=8, ke=4, commit_capacity=4)
_SESSIONS = dict(
    sessions_per_shard=2, requests_per_session=6, think_ms=1_800.0,
    settle_ms=75_000.0,
)

CONFIGS: Dict[str, ChaosConfig] = {
    config.name: config
    for config in (
        ChaosConfig(
            "pbft", "consensus", "pbft",
            dict(_PBFT, settle_ms=22_000.0, fault_kinds=_BENIGN + ("mute_half",),
                 fault_links=3, max_actions=5),
            _CONSENSUS_INVARIANTS,
            victims=(("", _PBFT_NODES),),
        ),
        ChaosConfig(
            "pbft-vc-crash", "consensus", "pbft",
            # state transfer adds a round trip or two
            dict(_PBFT, settle_ms=25_000.0),
            _CONSENSUS_INVARIANTS,
            schedule="pbft-vc-crash",
        ),
        # Durable-state loss and authenticated equivocation: ``wipe``
        # destroys the log, view and votes, so the victim reboots at
        # view 0 / seq 0 and rebuilds the complete history through
        # digest-first state transfer plus payload-on-miss fetches;
        # ``equivocate`` misuses the victim's own keys behind valid
        # per-receiver MAC entries, so no forged payload can reach a
        # commit quorum without 2f+1 backing and the view change
        # re-orders the starved payloads.
        ChaosConfig(
            "pbft-wipe", "consensus", "pbft",
            # full-history state transfer adds round trips
            dict(_PBFT, settle_ms=25_000.0, fault_kinds=("wipe", "equivocate"),
                 max_actions=5),
            _CONSENSUS_INVARIANTS,
            victims=(("", _PBFT_NODES),),
        ),
        ChaosConfig(
            "raft", "consensus", "raft",
            dict(_RAFT, settle_ms=25_000.0, fault_kinds=_BENIGN, fault_links=2,
                 max_actions=5),
            _CONSENSUS_INVARIANTS,
            victims=(("", _RAFT_NODES),),
        ),
        # Durable-state loss and clock skew: a wiped replica forgets its
        # vote and log, and the post-wipe quarantine must keep it from
        # voting (it may already have voted in the term it forgot) or
        # standing for election until a live leader adopts it.  Skew
        # scales the victim's timer rate by up to 2x either way: a fast
        # clock makes it a serial election agitator, a slow one the last
        # to notice a dead leader.
        ChaosConfig(
            "raft-skew", "consensus", "raft",
            # skew-driven elections burn extra rounds
            dict(_RAFT, settle_ms=30_000.0, fault_kinds=("wipe", "skew"),
                 max_actions=5),
            _CONSENSUS_INVARIANTS,
            victims=(("", _RAFT_NODES),),
        ),
        ChaosConfig(
            "irmc-rc", "irmc", "rc", dict(_IRMC, **_IRMC_PALETTE),
            ("exactly-once", "completion"), victims=_IRMC_VICTIMS,
        ),
        ChaosConfig(
            "irmc-sc", "irmc", "sc", dict(_IRMC, **_IRMC_PALETTE),
            ("exactly-once", "completion"), victims=_IRMC_VICTIMS,
        ),
        ChaosConfig(
            "irmc-equivocate", "irmc", "rc", dict(_IRMC),
            ("exactly-once", "completion"), schedule="irmc-equivocate",
        ),
        ChaosConfig(
            "irmc-sc-wipe", "irmc", "sc", dict(_IRMC),
            ("exactly-once", "completion"), schedule="irmc-sc-wipe",
        ),
        ChaosConfig(
            "spider", "cluster",
            knobs=dict(
                _SPIDER, horizon_ms=12_000.0,
                fault_kinds=("crash", "silence", "delay", "drop", "mute_half"),
                partition_regions=("tokyo",), max_actions=4,
            ),
            invariant_names=_SPIDER_INVARIANTS,
            victims=((":ag", _names("ag", 4)), (":ex", _names("g0-e", 3))),
            deployment=_deployment(_SPIDER_DEPLOYMENT),
        ),
        ChaosConfig(
            "spider-cp-crash", "cluster", knobs=dict(_SPIDER),
            invariant_names=_SPIDER_INVARIANTS, schedule="spider-cp-crash",
            deployment=_deployment(_SPIDER_DEPLOYMENT, config=_TIGHT_CHECKPOINTS),
        ),
        ChaosConfig(
            "spider-disk", "cluster", knobs=dict(_SPIDER),
            invariant_names=_SPIDER_INVARIANTS, schedule="spider-disk",
            deployment=_deployment(_SPIDER_DEPLOYMENT, config=_TIGHT_CHECKPOINTS),
        ),
        # Two complete agreement domains in Virginia; the palette only
        # ever hits shard sa.  Both shards owe completion-after-heal, and
        # every sb op must finish within latency_budget_ms of issue even
        # while sa's windows are open — shards share nothing but the
        # network, so sa's stall leaking into sb's latency would be a
        # routing/isolation bug.  Normal Virginia round trips are tens of
        # ms; the budget allows queueing slack while still catching any
        # cross-shard stall.
        ChaosConfig(
            "spider-shard", "cluster",
            knobs=dict(
                _SESSIONS, min_start_ms=1_000.0, horizon_ms=12_000.0,
                fault_kinds=("crash", "silence", "delay", "drop", "mute_half"),
                max_actions=4, latency_budget_ms=5_000.0,
            ),
            invariant_names=_SPIDER_INVARIANTS,
            victims=((":ag", _names("sa-ag", 4)), (":ex", _names("a0-e", 3))),
            deployment=_deployment(
                ShardSpec("sa", groups=(GroupSpec("a0", "virginia"),)),
                ShardSpec("sb", groups=(GroupSpec("b0", "virginia"),)),
            ),
        ),
        # A live range handover under fire: sa (agreement + group a0) in
        # Virginia, sb (agreement + group b0) in Oregon, so the partition
        # can sever the Virginia sessions from the destination
        # mid-handover.  The move plan pushes a slot range from sa to sb
        # while mover sessions write keys inside it.  No latency budget:
        # the partition makes cross-region stalls legitimate here.
        ChaosConfig(
            "spider-reshard", "cluster",
            knobs=dict(
                _SESSIONS, moves=((2, 3, "sa", "sb", 1),), move_at_ms=4_000.0,
                movers=2,
            ),
            invariant_names=_SPIDER_INVARIANTS + ("reshard-handover",),
            schedule="spider-reshard",
            deployment=_deployment(
                ShardSpec("sa", groups=(GroupSpec("a0", "virginia"),),
                          agreement_region="virginia"),
                ShardSpec("sb", groups=(GroupSpec("b0", "oregon"),),
                          agreement_region="oregon"),
            ),
        ),
    )
}


def configure(name: str, overrides: Mapping[str, Any]) -> ChaosConfig:
    """``CONFIGS[name]`` with knob ``overrides`` applied.

    Unknown configs and knobs raise
    :class:`~repro.errors.ConfigurationError` naming the known set, so a
    typo in a suite file fails at validation time, before any node
    exists.  Overrides equal to the entry's values give a byte-identical
    campaign.
    """
    try:
        config = CONFIGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos config {name!r}; known: {sorted(CONFIGS)}"
        ) from None
    for key in sorted(overrides):
        if key not in config.knobs:
            raise ConfigurationError(
                f"chaos config {name!r} has no tunable knob {key!r}; "
                f"tunable: {sorted(config.knobs)}"
            )
    return replace(config, knobs={**config.knobs, **overrides})


def get_harness(name: str) -> ChaosConfig:
    try:
        return CONFIGS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos config {name!r}; known: {sorted(CONFIGS)}"
        ) from None
