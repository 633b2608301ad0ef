"""The repository benchmark: host and simulated metrics per workload.

Run from the repository root (no install step; this script puts ``src``
on the path itself)::

    python3 perfbench/run.py --workload fig7-writes --seed 11 --seconds 30 --trace 0
    python3 perfbench/run.py --workload irmc-stream --trace 1

``--trace 0`` repeats setup + ``sim.run`` with tracing off for about
``--seconds`` host seconds (at least three repeats) and reports the
end-to-end metrics: host medians over the repeats and the simulated
metrics, which every repeat must reproduce exactly.  Host durations are
process CPU seconds (``time.process_time``), so time the process spends
descheduled does not count; wall seconds are printed beside them.
``--trace 1`` makes
one untraced repeat, then one under cProfile, and reports the per-layer
metrics; the traced repeat must reproduce the untraced simulated results
and fingerprint exactly.  Human-readable lines come
first; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Any failed check makes
the exit code 1; a checkout without ``src/repro`` makes it 2.  The traced
mode also writes its spans, layer table and counters to
``perfbench/out/<workload>-seed<seed>.json``.
"""

# lint: allow-file[D102] -- this harness measures host time (setup_s,
# run_s, per-layer self time); host values are only reported, never fed
# into a simulation, and every simulated result is pinned by
# sim_fingerprint across repeats and between traced and untraced runs
from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
import time

import bench_layers

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: a p99 needs at least ten samples beyond it.
MIN_P99_SAMPLES = 1_000
MIN_REPEATS = 3
#: setup takes milliseconds, so each repeat times it this many times (the
#: last build is the one that runs); setup_s is the median of all, spread
#: over the whole measurement as the runs are.
SETUPS_PER_REPEAT = 20

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("ops_per_run_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ops_per_s", "1/s"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
)

PER_LAYER = (
    ("crypto.self_s", "s"),
    ("sim.self_s", "s"),
    ("irmc.self_s", "s"),
    ("net.self_s", "s"),
    ("consensus.self_s", "s"),
    ("core.self_s", "s"),
    ("app.self_s", "s"),
    ("deploy.self_s", "s"),
    ("checkpoints.self_s", "s"),
    ("elastic.self_s", "s"),
    ("workload.self_s", "s"),
    ("other.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_op", "count/op"),
    ("net.wan_msgs_per_op", "count/op"),
    ("net.wan_bytes_per_op", "B/op"),
    ("net.lan_msgs_per_op", "count/op"),
    ("net.lan_bytes_per_op", "B/op"),
    ("crypto.sign_calls_per_op", "count/op"),
    ("crypto.verify_calls_per_op", "count/op"),
    ("crypto.mac_calls_per_op", "count/op"),
    ("crypto.digest_calls_per_op", "count/op"),
    ("irmc.sent", "count"),
    ("irmc.delivered", "count"),
    ("irmc.collector_switches", "count"),
    ("irmc.send_wait_ms", "ms"),
    ("consensus.ops_per_batch", "count"),
    ("consensus.leader_busy_frac", "ratio"),
    ("consensus.view_changes", "count"),
    ("consensus.state_transfers", "count"),
    ("checkpoints.stable", "count"),
    ("checkpoints.applied", "count"),
    ("core.exec_busy_frac", "ratio"),
    ("core.weak_reads", "count"),
    ("deploy.shed", "count"),
    ("deploy.admitted_ratio", "ratio"),
    ("sim_write_p50_ms", "ms"),
    ("sim_write_p99_ms", "ms"),
    ("sim_read_p50_ms", "ms"),
    ("sim_read_p99_ms", "ms"),
    ("sim_deliver_p50_ms", "ms"),
    ("sim_deliver_p99_ms", "ms"),
    ("sim_unavailable_ms", "ms"),
    ("failed_ops_frac", "ratio"),
)

#: the layer self times must account for this share of the traced run's
#: wall seconds; the profiler hooks' own time is the rest.  Traced runs of
#: all three workloads show 98-99%.
MIN_PROFILE_COVERAGE = 0.95


class Spans:
    """Host-time spans of the benchmark's own stages, kept in memory.

    Each span has its wall-clock start and end (the timeline) and the
    process CPU seconds it took, which is what the metrics report."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def record(self, name: str, repeat: int, fn):
        """``(fn(), CPU seconds, wall seconds)``."""
        started, cpu_started = time.perf_counter(), time.process_time()
        value = fn()
        cpu_s = time.process_time() - cpu_started
        ended = time.perf_counter()
        self.spans.append(
            {
                "name": name,
                "repeat": repeat,
                "start_s": started - self.origin,
                "end_s": ended - self.origin,
                "cpu_s": cpu_s,
            }
        )
        return value, cpu_s, ended - started


def measure(workload, seed: int, seconds: float, spans: Spans, min_repeats: int) -> dict:
    """Untraced repeats of setup + run for about ``seconds`` host seconds,
    and at least ``min_repeats`` of them."""
    started = time.perf_counter()
    setups, runs, walls, results = [], [], [], []
    while True:
        repeat = len(runs)
        for _ in range(SETUPS_PER_REPEAT):
            run = None  # collect the previous build before timing the next
            gc.collect()
            run, setup_s, _wall_s = spans.record("setup", repeat, lambda: workload.setup(seed))
            setups.append(setup_s)
        gc.collect()
        _none, run_s, wall_s = spans.record("run", repeat, run.execute)
        result, _check_s, _wall_s = spans.record("results", repeat, run.results)
        runs.append(run_s)
        walls.append(wall_s)
        results.append(result)
        del run
        elapsed = time.perf_counter() - started
        per_repeat = elapsed / len(runs)
        if len(runs) >= min_repeats and elapsed + per_repeat > seconds:
            break
    first = results[0]
    violations = list(first.violations)
    if any(result.comparable() != first.comparable() for result in results[1:]):
        violations.append("simulated results differ between repeats of one seed")
    return {
        "result": first,
        "violations": violations,
        "setup_s": statistics.median(setups),
        "setup_samples": len(setups),
        "run_s": statistics.median(runs),
        "ops_per_run_s": statistics.median(first.completed / r for r in runs),
        "repeats": len(runs),
        "runs": runs,
        "run_wall_s": statistics.median(walls),
    }


def trace(workload, seed: int, untraced: dict, spans: Spans) -> dict:
    """One more repeat under cProfile, folded into per-layer self time.

    cProfile reads its default wall clock: reading the process CPU clock
    takes a system call per profiler event and makes the traced run
    about twice as slow.  So the layer self times are compared with the
    traced run's wall seconds (``traced_run_s``).  The profiler hooks'
    own time falls between its clock reads, in no function's self time,
    so the layers (``other`` included) add up to a little less than
    that; the remainder is reported as ``unprofiled_s``.
    ``trace.overhead_s`` compares CPU seconds, like ``run_s``."""
    gc.collect()
    run, _setup_s, _wall_s = spans.record("setup", -1, lambda: workload.setup(seed))
    profile = cProfile.Profile()
    gc.collect()
    _none, traced_cpu_s, traced_run_s = spans.record(
        "traced-run", -1, lambda: profile.runcall(run.execute)
    )
    result, _check_s, _wall_s = spans.record("results", -1, run.results)
    stats = pstats.Stats(profile)
    self_s, calls, total = bench_layers.fold(stats)
    violations = list(untraced["violations"])
    if result.comparable() != untraced["result"].comparable():
        violations.append("tracing perturbed the simulation (results or fingerprint differ)")
    coverage = total / traced_run_s if traced_run_s else 0.0
    if not MIN_PROFILE_COVERAGE <= coverage <= 1.0 + 1e-6:
        violations.append(
            f"layer self times sum to {total:.3f} s, {coverage:.1%} of the traced run_s"
        )
    metrics = {f"{layer}.self_s": value for layer, value in self_s.items()}
    metrics["trace.overhead_s"] = traced_cpu_s - untraced["run_s"]
    metrics.update(result.counters)
    ops = result.completed
    for counter, count in bench_layers.crypto_calls(stats).items():
        metrics[counter] = count / ops if ops else 0.0
    for name, _unit in PER_LAYER:
        if name.startswith("sim_"):
            metrics[name] = result.sim.get(name, 0.0)
    metrics["failed_ops_frac"] = (result.attempted - result.completed) / result.attempted
    return {
        "metrics": metrics,
        "violations": violations,
        "calls": calls,
        "traced_run_s": traced_run_s,
        "profiled_s": total,
        "unprofiled_s": traced_run_s - total,
        "coverage": coverage,
    }


def _report(workload_name: str, seed: int, measured: dict) -> None:
    result = measured["result"]
    print(
        f"workload {workload_name}  seed {seed}  repeats {measured['repeats']}  "
        f"sim_fingerprint {result.fingerprint}"
    )
    print(f"  ops attempted {result.attempted}  completed {result.completed}")
    for name, value in sorted(result.sim.items()):
        samples = result.samples.get(name)
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:24s} {value:14.4f}{suffix}")


def _layer_table(traced: dict) -> None:
    metrics = traced["metrics"]
    total = traced["profiled_s"]
    print(
        f"  traced run_s {traced['traced_run_s']:.3f}  profiled self time "
        f"{total:.3f} ({traced['coverage']:.1%})  unprofiled_s "
        f"{traced['unprofiled_s']:.3f}  overhead {metrics['trace.overhead_s']:.3f}"
    )
    print(f"  {'layer':12s} {'self_s':>10s} {'share':>7s} {'calls':>12s}")
    for layer, calls in traced["calls"].items():
        value = metrics[f"{layer}.self_s"]
        share = value / total if total else 0.0
        print(f"  {layer:12s} {value:10.3f} {share:7.1%} {calls:12d}")


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bench_workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = bench_workloads.WORKLOADS[args.workload]()
    seed = workload.default_seed if args.seed is None else args.seed

    spans = Spans()
    # The traced mode needs the untraced results only as the reference the
    # traced repeat must reproduce, and for the tracing overhead: one
    # untraced repeat keeps it within the same host-time budget.
    if args.trace:
        measured = measure(workload, seed, 0.0, spans, min_repeats=1)
    else:
        measured = measure(workload, seed, args.seconds, spans, MIN_REPEATS)
    result = measured["result"]
    _report(args.workload, seed, measured)
    for name, samples in result.samples.items():
        if name.endswith("_p99_ms") and samples < MIN_P99_SAMPLES:
            measured["violations"].append(f"{name} over {samples} < {MIN_P99_SAMPLES} samples")
    if result.attempted != result.completed:
        measured["violations"].append(
            f"{result.attempted - result.completed} of {result.attempted} ops failed"
        )

    if args.trace:
        traced = trace(workload, seed, measured, spans)
        _layer_table(traced)
        violations = traced["violations"]
        metrics = {name: (traced["metrics"][name], unit) for name, unit in PER_LAYER}
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{args.workload}-seed{seed}.json"), "w") as out:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": seed,
                    "sim_fingerprint": result.fingerprint,
                    "spans": spans.spans,
                    "layer_calls": traced["calls"],
                    "traced_run_s": traced["traced_run_s"],
                    "unprofiled_s": traced["unprofiled_s"],
                    "metrics": traced["metrics"],
                },
                out,
                indent=2,
                sort_keys=True,
            )
    else:
        violations = measured["violations"]
        host = {
            "setup_s": measured["setup_s"],
            "run_s": measured["run_s"],
            "ops_per_run_s": measured["ops_per_run_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        print(
            f"  host: setup_s {host['setup_s']:.4f} (median of {measured['setup_samples']})  "
            f"run_s {host['run_s']:.3f} (median of {measured['repeats']})  "
            f"{[round(r, 3) for r in measured['runs']]}  wall {measured['run_wall_s']:.3f}  "
            f"ops_per_run_s {host['ops_per_run_s']:.1f}  peak_rss_mb {host['peak_rss_mb']:.1f}"
        )
        metrics = {
            name: (host[name] if name in host else result.sim[name], unit)
            for name, unit in END_TO_END
        }
    for violation in violations:
        print(f"  VIOLATION: {violation}")
    print(
        json.dumps(
            {
                "correct": not violations,
                "attempted": result.attempted,
                "failed": result.attempted - result.completed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
