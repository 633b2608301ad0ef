"""Chaos campaign sweep: the declarative suites against every stack.

Acceptance sweep for the chaos subsystem, driven by the committed
``suites/chaos.yaml``: >= 50 seeds spread across the fourteen stack
configurations (full Spider, PBFT-only, Raft-only, IRMC-RC, IRMC-SC,
the targeted recovery stacks ``pbft-vc-crash`` and ``spider-cp-crash``,
the two-shard isolation stack ``spider-shard``, the live-resharding
stack ``spider-reshard`` (crash/wipe/partition across a range
handover, audited by the ``reshard-handover`` cross-cut invariant),
and the adversary-and-environment palette stacks ``pbft-wipe``,
``raft-skew``, ``spider-disk``, ``irmc-equivocate`` and
``irmc-sc-wipe`` — durable-state loss, checkpoint corruption, clock
skew and authenticated equivocation), plus ``suites/reshard.yaml``'s
single- and double-handover cells.  Every safety and liveness
invariant must be green — crash/recovered replicas owe
completion-after-heal and wiped replicas owe the exact recovered
frontier — and two byte-parity guarantees hold: (a) a no-fault
campaign run is indistinguishable from the same workload without the
chaos layer loaded and (b) every cell reproduces the campaign
fingerprint, violations and action count pinned in
``benchmarks/fingerprints.json`` (recorded from the hand-wired
harnesses the data-driven configurations replaced).

Any failure is shrunk to a minimal schedule and written to
``benchmarks/CHAOS_failures.json`` (CI uploads it as an artifact); the
printed snippet is ready to be checked in as a regression test in
``tests/test_chaos_regressions.py``.

Run directly for the sweep table::

    PYTHONPATH=src python -m pytest -q benchmarks/test_chaos.py
"""

from __future__ import annotations

import functools
import json
import pathlib

import pytest

from repro.chaos import get_harness
from repro.experiments.chaos import Sweep, sweep
from repro.scenarios import BuildCache, load_suite, run_matrix

HERE = pathlib.Path(__file__).parent
FAILURES_PATH = HERE / "CHAOS_failures.json"
PINS = json.loads((HERE / "fingerprints.json").read_text())["suites"]

#: loaded (and fully validated) once per process — configuration
#: mistakes in a suite file fail collection, before any node exists.
SUITES = {
    path: load_suite(HERE.parent / path)
    for path in ("suites/chaos.yaml", "suites/reshard.yaml")
}
SUITE = SUITES["suites/chaos.yaml"]

#: one shared build cache across the whole sweep: each config is built
#: once and reused for all of its seeds.
CACHE = BuildCache()

SEEDS_PER_CONFIG = len(SUITE.seeds)
SEED_BASE = SUITE.seeds[0]
CONFIGS = sorted(spec.name for spec in SUITE.scenarios)
RESHARD_CONFIGS = sorted(spec.name for spec in SUITES["suites/reshard.yaml"].scenarios)


@pytest.fixture(autouse=True, scope="module")
def _fresh_failure_artifact():
    """Drop any stale artifact so a green run leaves no file behind and a
    failing run's report contains only this run's schedules."""
    if FAILURES_PATH.exists():
        FAILURES_PATH.unlink()
    yield


@functools.lru_cache(maxsize=None)
def _sweep(suite: str, config: str) -> Sweep:
    """Each scenario is swept once per process; the sweep and pin tests share it."""
    return sweep(SUITES[suite].scenario(config), SUITES[suite].seeds, CACHE)


def _assert_green(config: str, swept: Sweep) -> None:
    if swept.failures:
        existing = []
        if FAILURES_PATH.exists():
            existing = json.loads(FAILURES_PATH.read_text())
        FAILURES_PATH.write_text(
            json.dumps(existing + swept.failures, indent=2, default=repr)
        )
        detail = "\n\n".join(f.get("snippet", f.get("error", "")) for f in swept.failures)
        pytest.fail(
            f"{config}: {len(swept.failures)}/{len(swept.cells)} seeds violated "
            f"invariants; minimized repros in {FAILURES_PATH}:\n{detail}"
        )
    # The sweep must actually inject faults — an accidentally empty
    # palette would make the invariants vacuously green.
    assert swept.actions >= len(swept.cells), (
        f"{config}: only {swept.actions} fault actions over "
        f"{len(swept.cells)} seeds — campaign is not exercising faults"
    )


def _assert_pinned(suite: str, config: str, swept: Sweep) -> None:
    """Each cell's campaign fingerprint, violations and action count equal
    the pin; a legitimate move edits the pin with a CHANGES.md line."""
    for cell in swept.cells:
        assert cell.error is None, cell.error
    got = {
        str(cell.seed): {
            "fingerprint": cell.stats["campaign_fingerprint"],
            "actions": cell.stats["n_actions"],
            "violations": cell.stats["violations"],
        }
        for cell in swept.cells
    }
    assert got == PINS[suite][config]


@pytest.mark.parametrize("config", CONFIGS)
def test_campaign_sweep(config):
    _assert_green(config, _sweep("suites/chaos.yaml", config))


@pytest.mark.parametrize("config", CONFIGS)
def test_suite_cell_matches_handwired_harness(config):
    """Every seed of the cell reproduces the hand-wired harness's pinned outcome."""
    _assert_pinned("suites/chaos.yaml", config, _sweep("suites/chaos.yaml", config))


@pytest.mark.parametrize("config", RESHARD_CONFIGS)
def test_reshard_suite_sweep(config):
    swept = _sweep("suites/reshard.yaml", config)
    _assert_green(config, swept)
    _assert_pinned("suites/reshard.yaml", config, swept)


def test_suite_cache_reuses_builds():
    """The suite runner demonstrably reuses cached constructions."""
    cache = BuildCache()
    spec = SUITE.scenario("pbft")
    run_matrix([spec], SUITE.seeds[:2], cache)
    # The second seed reuses the config built for the first.
    assert cache.stats() == {"hits": 1, "misses": 3, "entries": 3}
    # A repeated sweep rebuilds nothing: both cells take the config and
    # their schedule from the cache.
    run_matrix([spec], SUITE.seeds[:2], cache)
    assert cache.stats() == {"hits": 5, "misses": 3, "entries": 3}


@pytest.mark.parametrize("config", CONFIGS)
def test_no_fault_campaign_is_byte_identical(config):
    """Chaos layer armed with zero faults == chaos layer absent."""
    harness = get_harness(config)
    wrapped = harness.run(SEED_BASE, actions=[])
    bare = harness.run(SEED_BASE, actions=[], chaos=False)
    assert wrapped.ok and bare.ok
    assert wrapped.stats == bare.stats
    assert wrapped.fingerprint() == bare.fingerprint()


def main() -> None:  # pragma: no cover - manual entry point
    for suite in SUITES:
        for config in sorted(spec.name for spec in SUITES[suite].scenarios):
            swept = _sweep(suite, config)
            status = "ok" if not swept.failures else f"{len(swept.failures)} FAILURES"
            print(f"{config:22s} seeds={len(swept.cells)} actions={swept.actions} {status}")
            for failure in swept.failures:
                print(failure.get("snippet", failure.get("error", "")))
    print("cache:", CACHE.stats())


if __name__ == "__main__":  # pragma: no cover
    main()
