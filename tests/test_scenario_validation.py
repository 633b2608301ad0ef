"""Validation-error matrix: every misconfiguration fails before any node.

``ScenarioSpec.validate()`` (and suite loading, which calls it for every
scenario) must reject bad configuration with an actionable message while
the system is still pure data — no simulator, no nodes, no network.
Each test asserts both the rejection and the useful part of the message.
"""

from __future__ import annotations

import pytest

import repro.deploy
from repro.errors import ConfigurationError
from repro.scenarios import ScenarioSpec, load_suite, suite_from_dict


@pytest.fixture(autouse=True)
def _no_nodes_may_exist(monkeypatch):
    """Validation must never build anything: poison the deploy entrypoint."""

    def _forbidden(*args, **kwargs):  # pragma: no cover - only on regression
        raise AssertionError("validation must not build a cluster")

    monkeypatch.setattr(repro.deploy, "build", _forbidden)
    yield


def _chaos_spec(**changes) -> ScenarioSpec:
    fields = dict(
        name="probe",
        stack="chaos",
        params={"config": "pbft"},
        faults={"palette": ["crash", "delay"], "max_actions": 2},
        invariants=[
            "sequence-agreement", "exactly-once", "completion",
            "recovered-frontier",
        ],
        scale={"ops": 8},
    )
    fields.update(changes)
    return ScenarioSpec.of(**fields)


# ----------------------------------------------------------------------
# unknown names
# ----------------------------------------------------------------------
def test_unknown_invariant_name():
    spec = _chaos_spec(invariants=["sequnce-agreement"])  # typo
    with pytest.raises(ConfigurationError, match="unknown invariant 'sequnce-agreement'") as err:
        spec.validate()
    assert "sequence-agreement" in str(err.value)  # the fix is in the message


def test_unknown_fault_kind_in_palette():
    spec = _chaos_spec(faults={"palette": ["crash", "gamma-ray"]})
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        spec.validate()


def test_unknown_fault_kind_in_explicit_actions():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "gamma-ray", "target": "a-1", "start_ms": 100.0, "duration_ms": 10.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="unknown fault kind 'gamma-ray'"):
        spec.validate()


def test_unknown_stack_name():
    spec = ScenarioSpec.of(name="probe", stack="warp-drive")
    with pytest.raises(ConfigurationError, match="unknown stack 'warp-drive'") as err:
        spec.validate()
    assert "chaos" in str(err.value)


def test_unknown_chaos_config():
    spec = _chaos_spec(params={"config": "pbbft"})
    with pytest.raises(ConfigurationError, match="unknown chaos config 'pbbft'") as err:
        spec.validate()
    assert "pbft" in str(err.value)


def test_unknown_harness_knob_via_scale():
    spec = _chaos_spec(scale={"opps": 8})
    with pytest.raises(ConfigurationError, match="'opps'") as err:
        spec.validate()
    assert "ops" in str(err.value)  # the tunable set is listed


def test_palette_on_targeted_config():
    """A targeted schedule never reads a palette, so a spec cannot set one."""
    spec = _chaos_spec(params={"config": "pbft-vc-crash"})
    with pytest.raises(ConfigurationError, match="no tunable knob 'fault_kinds'"):
        spec.validate()


def test_unknown_middleware_name():
    spec = ScenarioSpec.of(
        name="probe",
        stack="overload",
        topology={
            "shards": [
                {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]},
            ],
            "config": {},
            "middleware": [{"name": "admision", "options": {"depth": 4}}],
        },
        workload=_FLASH,
        scale={"cost_scale": 10.0},
    )
    with pytest.raises(ConfigurationError, match="unknown middleware 'admision'") as err:
        spec.validate()
    assert "admission" in str(err.value)


_FLASH = {
    "kind": "flash-plan", "sessions": 4, "n_keys": 8, "skew": 0.99,
    "write_fraction": 0.5, "base_rate": 100.0, "flash_rate": 500.0,
    "flash_start_ms": 200.0, "flash_end_ms": 400.0, "duration_ms": 600.0,
}


# ----------------------------------------------------------------------
# negative values and bad windows
# ----------------------------------------------------------------------
def test_negative_workload_rate():
    bad = dict(_FLASH, base_rate=-100.0)
    spec = ScenarioSpec.of(name="probe", stack="overload", workload=bad)
    with pytest.raises(ConfigurationError, match="base_rate must be >= 0"):
        spec.validate()


def test_negative_fault_budget():
    spec = _chaos_spec(faults={"palette": ["crash"], "max_actions": -1})
    with pytest.raises(ConfigurationError, match="max_actions budget must be >= 0"):
        spec.validate()


def test_negative_scale_knob():
    spec = _chaos_spec(scale={"ops": -8})
    with pytest.raises(ConfigurationError, match="ops must be >= 0"):
        spec.validate()


def test_horizon_before_min_start():
    spec = _chaos_spec(
        faults={"palette": ["crash"], "min_start_ms": 5000.0, "horizon_ms": 400.0},
    )
    with pytest.raises(ConfigurationError, match="horizon_ms 400.0 before"):
        spec.validate()


def test_negative_action_window():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": -5.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="negative window"):
        spec.validate()


def test_overlapping_windows_same_kind_and_target():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 500.0},
            {"kind": "crash", "target": "a-1", "start_ms": 300.0, "duration_ms": 500.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        spec.validate()


def test_overlapping_windows_sharing_a_slot():
    """wipe and crash share the crash occupancy slot on one target."""
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 500.0},
            {"kind": "wipe", "target": "a-1", "start_ms": 300.0, "duration_ms": 500.0},
        ]},
    )
    with pytest.raises(ConfigurationError, match="one window per \\(kind, target\\) slot"):
        spec.validate()


def test_non_overlapping_windows_are_fine():
    spec = _chaos_spec(
        faults={"actions": [
            {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 100.0},
            {"kind": "crash", "target": "a-1", "start_ms": 900.0, "duration_ms": 100.0},
            {"kind": "crash", "target": "a-2", "start_ms": 120.0, "duration_ms": 100.0},
        ]},
    )
    spec.validate()


def test_palette_and_actions_are_mutually_exclusive():
    spec = _chaos_spec(
        faults={
            "palette": ["crash"],
            "actions": [
                {"kind": "crash", "target": "a-1", "start_ms": 100.0, "duration_ms": 10.0},
            ],
        },
    )
    with pytest.raises(ConfigurationError, match="palette .*or an explicit"):
        spec.validate()


# ----------------------------------------------------------------------
# stack contracts
# ----------------------------------------------------------------------
def test_chaos_invariants_must_match_harness_obligations():
    spec = _chaos_spec(invariants=["sequence-agreement", "exactly-once"])
    with pytest.raises(ConfigurationError, match="do not match config 'pbft' obligations") as err:
        spec.validate()
    assert "completion" in str(err.value)


def test_unknown_workload_kind():
    spec = ScenarioSpec.of(
        name="probe", stack="overload", workload={"kind": "open-loop"}
    )
    with pytest.raises(ConfigurationError, match="unknown workload kind 'open-loop'"):
        spec.validate()


def test_overload_needs_a_topology():
    spec = ScenarioSpec.of(name="probe", stack="overload", workload=_FLASH)
    with pytest.raises(ConfigurationError, match="needs a 'topology'"):
        spec.validate()


def test_missing_flash_plan_options_are_listed():
    partial = {"kind": "flash-plan", "sessions": 4}
    spec = ScenarioSpec.of(
        name="probe", stack="overload",
        topology={"shards": [
            {"shard_id": "s0", "groups": [{"group_id": "g0", "region": "virginia"}]},
        ], "config": {}},
        workload=partial,
    )
    with pytest.raises(ConfigurationError, match="missing options") as err:
        spec.validate()
    assert "flash_rate" in str(err.value)


def test_unknown_scenario_keys_are_rejected():
    with pytest.raises(ConfigurationError, match="unknown keys \\['topologi'\\]"):
        ScenarioSpec.from_dict(
            {"name": "probe", "stack": "chaos", "topologi": {}}
        )


# ----------------------------------------------------------------------
# suite-level layering errors
# ----------------------------------------------------------------------
def _suite_data(**changes):
    data = {
        "name": "probe-suite",
        "seeds": [1],
        "defaults": {"stack": "chaos"},
        "scenarios": [
            {
                "name": "pbft-cell",
                "params": {"config": "pbft"},
                "faults": {"palette": ["crash"]},
                "invariants": [
                    "sequence-agreement", "exactly-once", "completion",
                    "recovered-frontier",
                ],
            },
        ],
    }
    data.update(changes)
    return data


def test_suite_override_for_undefined_scenario():
    data = _suite_data(overrides={"pbft-cel": {"scale": {"ops": 4}}})
    with pytest.raises(ConfigurationError, match="reference undefined scenarios") as err:
        suite_from_dict(data)
    assert "pbft-cel" in str(err.value) and "pbft-cell" in str(err.value)


def test_suite_duplicate_scenario_names():
    data = _suite_data()
    data["scenarios"] = data["scenarios"] * 2
    with pytest.raises(ConfigurationError, match="duplicate scenario names"):
        suite_from_dict(data)


def test_suite_scenario_entry_without_name():
    data = _suite_data(scenarios=[{"params": {"config": "pbft"}}])
    with pytest.raises(ConfigurationError, match="entry without a name"):
        suite_from_dict(data)


def test_suite_with_no_scenarios():
    with pytest.raises(ConfigurationError, match="declares no scenarios"):
        suite_from_dict({"name": "empty", "scenarios": []})


def test_suite_unknown_top_level_key():
    data = _suite_data(defaualts={})
    with pytest.raises(ConfigurationError, match="unknown keys \\['defaualts'\\]"):
        suite_from_dict(data)


def test_suite_error_names_the_failing_scenario():
    """A bad scenario inside a suite is attributed by name at load time."""
    data = _suite_data()
    data["scenarios"][0]["scale"] = {"opps": 4}
    with pytest.raises(ConfigurationError, match="'opps'"):
        suite_from_dict(data)


def test_unsupported_suite_format(tmp_path):
    path = tmp_path / "suite.toml"
    path.write_text("[suite]\n")
    with pytest.raises(ConfigurationError, match="unsupported suite format '.toml'"):
        load_suite(path)


def test_suite_file_must_hold_a_mapping(tmp_path):
    path = tmp_path / "suite.json"
    path.write_text("[1, 2]\n")
    with pytest.raises(ConfigurationError, match="must hold a mapping"):
        load_suite(path)
