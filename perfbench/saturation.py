"""Closed-loop write saturation of the geo-mixed-failover deployment.

Run from the repository root::

    python3 perfbench/saturation.py --seed 7 --sessions-per-region 32 64 128

Builds :class:`bench_workloads.GeoMixedFailover`'s 2-shard spec (same
``slo-metrics`` + ``admission`` middleware, default crypto cost model, 5%
link jitter), drives every session in a zero-think closed loop of writes
to the workload's Zipfian keys, with no crash, and prints the completed
writes per simulated second in the measurement window for each session
count.  Adding sessions stops adding throughput once the cluster
saturates; the plateau is the write saturation from which the workload's
open-loop rate is derived (see the README).
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import List

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def saturation(seed: int, sessions_per_region: int, load_ms: float = 4_000.0,
               warmup_ms: float = 1_000.0) -> float:
    """Completed writes per simulated second, between ``warmup_ms`` and
    ``load_ms``, with ``sessions_per_region`` closed-loop writers per region."""
    from bench_workloads import GeoMixedFailover
    from repro.deploy import build
    from repro.experiments.common import REGIONS, fresh_env
    from repro.workload.traffic import ZipfianKeys

    workload = GeoMixedFailover(sessions_per_region=sessions_per_region)
    sim, network = fresh_env(seed=seed)
    cluster = build(sim, workload.spec(), network=network)
    rng = random.Random(f"perfbench:{seed}:geo:saturation")
    keys = ZipfianKeys(workload.n_keys, skew=workload.zipf_skew)
    done: List[float] = []
    issued = [0]

    def issue(session) -> None:
        if sim.now >= load_ms:
            return
        issued[0] += 1
        future = session.write(keys.sample(rng), f"w{issued[0]}")
        future.add_callback(lambda result: completed(session, result))

    def completed(session, result) -> None:
        if not (isinstance(result, tuple) and result[0] == "ok"):
            raise RuntimeError(f"{session.name}: write ended {result!r}")
        done.append(sim.now)
        issue(session)

    for index in range(sessions_per_region * len(REGIONS)):
        session = cluster.session(f"u{index}", REGIONS[index % len(REGIONS)])
        sim.schedule_at(0.0, issue, session)
    sim.run(until=load_ms)
    in_window = sum(1 for at in done if warmup_ms <= at < load_ms)
    return in_window / ((load_ms - warmup_ms) / 1000.0)


def main(argv=None) -> int:
    sys.path.insert(0, SRC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--sessions-per-region", type=int, nargs="+", default=[32, 64, 128])
    args = parser.parse_args(argv)
    for sessions in args.sessions_per_region:
        rate = saturation(args.seed, sessions)
        print(f"sessions/region {sessions:4d}  writes/s {rate:8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
