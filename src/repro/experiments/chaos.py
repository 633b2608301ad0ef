"""Chaos campaign: seeded fault schedules against every stack configuration.

Not a paper figure — this is the repo's systematic answer to the ROADMAP's
"as many scenarios as you can imagine": for each stack configuration in
``suites/chaos.yaml`` (see :data:`repro.chaos.CONFIGS`) it sweeps seeds,
each seed deriving a deterministic fault schedule (crash/recover, wipe,
silence, delay, loss, duplication, partition/heal, Byzantine-style
partial muting, ...) plus a deterministic workload, and checks
safety and liveness invariants once every fault healed.  Crash/recovered
replicas owe full liveness: recovery is a protocol phase (state transfer,
driver respawn, checkpoint-fetch-on-boot), not an exemption.

Any failing ``(config, seed)`` is shrunk to a minimal schedule and
reported as a paste-able regression snippet; failures are also written to
``benchmarks/CHAOS_failures.json`` so CI can attach them as an artifact::

    python -m repro.experiments chaos --quick
    python -m repro.experiments chaos --seed 7   # shifts the seed window
    python -m repro.experiments chaos --configs spider-cp-crash
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.chaos import FaultAction, repro_snippet, shrink_schedule
from repro.chaos.schedule import format_schedule
from repro.experiments.common import ExperimentResult
from repro.scenarios import BuildCache, CellResult, ScenarioSpec, load_suite, run_matrix
from repro.scenarios.stacks import resolve_stack

_REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]
FAILURES_PATH = _REPO_ROOT / "benchmarks" / "CHAOS_failures.json"
SUITE_PATH = _REPO_ROOT / "suites" / "chaos.yaml"

#: seeds per configuration (full / --quick)
SEEDS_FULL = 16
SEEDS_QUICK = 4


@dataclass
class Sweep:
    """One chaos scenario swept over a seed window."""

    cells: List[CellResult]
    #: fault actions injected across all cells
    actions: int
    #: one record per failing cell, each failure shrunk to a minimal repro
    failures: List[dict]


def sweep(spec: ScenarioSpec, seeds: Iterable[int], cache: BuildCache) -> Sweep:
    """Run ``spec`` over ``seeds``; shrink every failing schedule.

    A failure record carries the violations, the schedule, its ddmin
    minimisation and a paste-able regression snippet — the workflow is
    *sweep, shrink, check the snippet in as a test, fix the bug*.
    """
    cells = run_matrix([spec], list(seeds), cache)
    actions = 0
    failures: List[dict] = []
    for cell in cells:
        if cell.error is not None:
            failures.append({"config": spec.name, "seed": cell.seed, "error": cell.error})
            continue
        actions += cell.stats["n_actions"]
        if cell.ok:
            continue
        config = resolve_stack(spec.stack).config(spec)
        schedule = [FaultAction(**a) for a in cell.stats["schedule"]]
        minimal = shrink_schedule(config, cell.seed, actions=schedule)
        failures.append(
            {
                "config": spec.name,
                "seed": cell.seed,
                "fingerprint": cell.fingerprint,
                "violations": cell.stats["violations"],
                "schedule": cell.stats["schedule"],
                "minimized": [dict(vars(a)) for a in minimal],
                "snippet": repro_snippet(config, cell.seed, minimal),
            }
        )
    return Sweep(cells, actions, failures)


def run(
    quick: bool = False,
    seed: int = 1,
    configs: Optional[Sequence[str]] = None,
    failures_path: Optional[pathlib.Path] = None,
) -> ExperimentResult:
    """Sweep the declarative chaos suite; tabulate green/failing seeds.

    The scenario definitions come from ``suites/chaos.yaml``; this CLI
    only picks the seed window (``--seed`` shifts it, ``--quick``
    shrinks it) and the ``--configs`` subset.
    """
    per_config = SEEDS_QUICK if quick else SEEDS_FULL
    suite = load_suite(SUITE_PATH)
    configs = list(configs or sorted(spec.name for spec in suite.scenarios))
    result = ExperimentResult(
        title=f"Chaos campaign ({per_config} seeds per configuration)",
        columns=["config", "seeds", "actions", "failures", "failing seeds"],
    )
    cache = BuildCache()
    all_failures: List[dict] = []
    for config in configs:
        swept = sweep(suite.scenario(config), range(seed, seed + per_config), cache)
        all_failures += swept.failures
        failing = ",".join(str(failure["seed"]) for failure in swept.failures)
        result.add_row(
            config=config,
            seeds=per_config,
            actions=swept.actions,
            failures=len(swept.failures),
            **{"failing seeds": failing or "-"},
        )
    path = failures_path if failures_path is not None else FAILURES_PATH
    if all_failures:
        path.write_text(json.dumps(all_failures, indent=2, default=repr))
        result.notes.append(f"failing schedules written to {path}")
        for failure in all_failures:
            detail = failure["violations"][0] if "violations" in failure else failure["error"]
            result.notes.append(f"{failure['config']} seed {failure['seed']}: {detail}")
            minimized = failure.get("minimized")
            if minimized:
                result.notes.append(
                    "minimized: "
                    + format_schedule(
                        [FaultAction(**m) for m in minimized]
                    ).replace("\n", " ")
                )
    else:
        # A stale artifact from a previous failing run would confuse CI.
        if path.exists():
            path.unlink()
        result.notes.append("all invariants held; no failure artifact")
    stats = cache.stats()
    result.notes.append(
        f"build cache: {stats['hits']} hits / {stats['misses']} misses "
        f"({stats['entries']} entries)"
    )
    return result
