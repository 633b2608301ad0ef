"""Wall-clock optimisations must not change simulated results.

The hot-path work (seal-once digests, O(1) event bookkeeping, the network
fast path) is only admissible because a same-seed run stays byte-identical
to the run before it.  These tests pin that contract:

* end-to-end Spider runs produce reply traces, journals and timings whose
  CRCs are pinned to the values recorded before messages sealed their
  digests, when every digest was still re-validated field by field;
* a fault-injected run (partitions + drops, which flip the network between
  fast and slow paths mid-simulation) is pinned the same way;
* the event queue's O(1) bookkeeping and lazy compaction never change
  firing order.
"""

from __future__ import annotations

import zlib

from repro.net import Network, Site, Topology
from repro.sim import Simulator
from tests.test_batching_properties import build_system, run_workload


def _crc(trace: tuple) -> int:
    return zlib.crc32(repr(trace).encode("utf-8"))


def _spider_trace(seed: int, use_reads: bool = True) -> tuple:
    sim, system = build_system(seed=seed)
    clients, replies = run_workload(
        sim, system, n_clients=3, n_requests=4, use_reads=use_reads
    )
    return (
        repr([(client.name, client.completed) for client in clients]),
        repr(replies),
        repr(
            [
                (replica.name, replica.app.journal)
                for group in system.groups.values()
                for replica in group.replicas
            ]
        ),
        repr(sim.now),
        repr(sim.events_processed),
    )


def _faulty_trace(seed: int) -> tuple:
    """A run that arms and disarms network faults mid-simulation."""
    sim, system = build_system(seed=seed)
    network = system.network
    sim.schedule(500.0, network.partition, ["tokyo"])
    sim.schedule(2_500.0, network.heal)
    sim.schedule(3_000.0, network.set_drop_rate, 0.05)
    sim.schedule(5_000.0, network.set_drop_rate, 0.0)
    clients, replies = run_workload(
        sim, system, n_clients=2, n_requests=3, use_reads=False
    )
    return (
        repr([(client.name, client.completed) for client in clients]),
        repr(replies),
        repr(sim.now),
        repr(sim.events_processed),
    )


class TestDigestCacheParity:
    def test_end_to_end_reply_trace_bit_identical(self):
        """Reply values, reply timings, replica journals, final clock and
        event count match the pinned trace byte-for-byte."""
        assert _crc(_spider_trace(seed=1234)) == 315652745

    def test_parity_across_seeds(self):
        # ``build_system`` runs without jitter, so the seed moves nothing.
        for seed in (7, 99, 20_001):
            assert _crc(_spider_trace(seed, use_reads=False)) == 3588024093

    def test_parity_under_fault_injection(self):
        """Partitions/drop-rates flip the network's armed-fault fast path on
        and off mid-run; the pinned trace must still match."""
        assert _crc(_faulty_trace(seed=42)) == 1191433617


class TestEventQueueBookkeeping:
    def test_pending_events_is_live_count(self):
        sim = Simulator(seed=0)
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        sim.post(20.0, lambda: None)
        assert sim.pending_events == 11
        handles[0].cancel()
        handles[1].cancel()
        assert sim.pending_events == 9
        handles[1].cancel()  # idempotent
        assert sim.pending_events == 9
        sim.run()
        assert sim.pending_events == 0
        assert sim.events_processed == 9

    def test_cancel_after_firing_is_a_noop(self):
        sim = Simulator(seed=0)
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        handle.cancel()  # must not corrupt the live count
        assert sim.pending_events == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator(seed=0)
        fired = []
        keep = []
        cancelled = []
        for i in range(500):
            handle = sim.schedule(1000.0 + i, fired.append, i)
            (keep if i % 5 == 0 else cancelled).append(handle)
        # Mass-cancellation drives cancelled > live, forcing a compaction.
        for handle in cancelled:
            handle.cancel()
        assert sim.pending_events == len(keep)
        assert len(sim._queue) < 500  # compaction actually ran
        sim.run()
        assert fired == [i for i in range(500) if i % 5 == 0]

    def test_mixed_post_and_schedule_order(self):
        sim = Simulator(seed=0)
        fired = []
        sim.schedule(2.0, fired.append, "handle")
        sim.post(2.0, fired.append, "post")
        sim.post_at(1.0, fired.append, "early")
        sim.run()
        assert fired == ["early", "handle", "post"]


class TestNetworkFastPath:
    def _pair(self):
        from repro.sim.node import Node

        sim = Simulator(seed=3)
        network = Network(sim, Topology(), jitter=0.0)

        received = []

        class Sink(Node):
            def on_message(self, src, message):
                received.append(message)

        a = network.register(Sink(sim, "a", Site("virginia", 1)))
        b = network.register(Sink(sim, "b", Site("tokyo", 1)))
        return sim, network, a, b, received

    def test_faults_still_apply_after_arming(self):
        sim, network, a, b, received = self._pair()
        network.send(a, b, "hello")
        network.partition(["tokyo"])
        network.send(a, b, "blocked")
        network.heal()
        network.send(a, b, "world")
        sim.run()
        assert received == ["hello", "world"]
        assert network.dropped == 1

    def test_block_link_and_filter_bypass_fast_path(self):
        sim, network, a, b, received = self._pair()
        network.block_link(a, b)
        network.send(a, b, "nope")
        network.unblock_link(a, b)
        network.fault.filter = lambda src, dst, message: message != "filtered"
        network.send(a, b, "filtered")
        network.fault.filter = None
        network.send(a, b, "ok")
        sim.run()
        assert received == ["ok"]
        assert network.dropped == 2

    def test_invalidate_cache_propagates_to_network(self):
        """Mid-run latency-table edits must reach in-flight link caches."""
        sim, network, a, b, received = self._pair()
        network.send(a, b, "warm")  # populates the per-node-pair cache
        key = frozenset(("virginia", "tokyo"))
        network.topology.region_rtt_ms[key] = 2.0
        network.topology.invalidate_cache()
        network.send(a, b, "fast")
        sim.run()
        # Both were sent at t=0; with the stale ~83 ms one-way profile the
        # second message would arrive *after* the first, but the edited
        # table (1 ms one-way) must win once the cache is invalidated.
        assert received == ["fast", "warm"]

    def test_link_profile_matches_topology_oracle(self):
        topology = Topology()
        a, b = Site("virginia", 1), Site("tokyo", 2)
        profile = topology.link_profile(a, b)
        assert profile.one_way_ms == topology.one_way_ms(a, b)
        assert profile.is_wan is topology.is_wan(a, b)
        assert (4096 * 8.0) / profile.ser_divisor == topology.serialization_ms(
            a, b, 4096
        )
        lan = topology.link_profile(a, Site("virginia", 2))
        assert lan.is_wan is False and lan.region_key is None
