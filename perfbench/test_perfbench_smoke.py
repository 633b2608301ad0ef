"""Smoke test of the repository benchmark at tiny scale.

Runs every workload's setup / run / checks at a scale that takes a few
seconds, the traced fold on one of them, and checks that
``BENCHMARK.json`` names exactly the metrics and workloads the benchmark
prints.  The full-scale runs are ``python3 perfbench/run.py ...``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import bench_workloads
import run as perfbench
import saturation

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TINY = {
    "fig7-writes": lambda: bench_workloads.Fig7Writes(
        clients_per_region=1, duration_ms=600.0, warmup_ms=100.0, drain_ms=1_500.0
    ),
    "irmc-stream": lambda: bench_workloads.IrmcStream(
        positions=128, capacity=64, until_ms=2_000.0
    ),
    "geo-mixed-failover": lambda: bench_workloads.GeoMixedFailover(
        rate_ops_s=150.0,
        duration_ms=2_000.0,
        warmup_ms=100.0,
        crash_at_ms=300.0,
        recover_at_ms=1_800.0,
        drain_ms=3_000.0,
        sessions_per_region=2,
        n_keys=50,
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("seed", [3, 4])
def test_workload_passes_its_checks_and_repeats_exactly(name, seed):
    workload = TINY[name]()
    measured = perfbench.measure(workload, seed, 0.0, perfbench.Spans(), min_repeats=2)
    result = measured["result"]
    assert measured["violations"] == []
    assert result.attempted == result.completed > 0
    assert result.sim["sim_ops_per_s"] > 0
    assert 0 < result.sim["sim_p50_ms"] <= result.sim["sim_p99_ms"]


def test_geo_failover_exercises_view_change_and_middleware():
    result = TINY["geo-mixed-failover"]().setup(5)
    result.execute()
    results = result.results()
    assert results.violations == []
    assert results.counters["consensus.view_changes"] >= 1
    assert results.counters["core.weak_reads"] > 0
    assert results.counters["deploy.admitted_ratio"] == 1.0
    assert results.sim["sim_unavailable_ms"] > 0


def test_outage_is_the_longest_commit_gap_while_the_leader_is_down():
    # The gap after recovery (2100 -> 4000) is not the crash's outage.
    times = [100.0, 200.0, 900.0, 950.0, 2100.0, 4000.0]
    assert bench_workloads._outage(times, 300.0, 2000.0) == 1150.0
    assert bench_workloads._outage(times[2:], 300.0, 2000.0) is None
    assert bench_workloads._outage(times[:4], 300.0, 2000.0) is None


def test_saturation_closed_loop_completes_writes():
    assert saturation.saturation(3, 1, load_ms=600.0, warmup_ms=100.0) > 0


def test_trace_reproduces_untraced_run_and_partitions_self_time():
    workload = TINY["irmc-stream"]()
    spans = perfbench.Spans()
    untraced = perfbench.measure(workload, 3, 0.0, spans, min_repeats=1)
    traced = perfbench.trace(workload, 3, untraced, spans)
    assert traced["violations"] == []
    metrics = traced["metrics"]
    assert set(metrics) == {name for name, _unit in perfbench.PER_LAYER}
    assert metrics["irmc.self_s"] > 0
    for layer in ("consensus", "core", "deploy", "app", "checkpoints"):
        assert metrics[f"{layer}.self_s"] == 0.0
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in traced["calls"])
    assert layer_sum == pytest.approx(traced["profiled_s"])


def test_benchmark_json_matches_what_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(bench_workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(perfbench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(perfbench.PER_LAYER)


def test_refuses_to_run_without_the_simulator_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "irmc-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode == 2
    assert completed.stdout == ""
