"""Compiled-vs-interpreted dispatch differential.

The compiled rulebase is only admissible because it is *provably
inert*: same first-violation verdict — rule id and reason string — for
every command, across every workload.  This suite pins that equivalence
at three granularities:

- **scenario level** — every hand-built rule scenario checked through
  both paths;
- **workload level** — whole recorded traces (verdicts, state deltas,
  virtual timestamps) compared field-by-field, with ``verdict.dispatch``
  the only permitted difference;
- **corpus level** — a sample of the Monte Carlo mutant corpus re-run
  through both paths (``COMPILED_DIFF_SAMPLES`` widens the sample for
  the nightly tier).
"""

import os

import pytest

from repro.core.actions import ActionCall, ActionLabel
from repro.core.rulebase import CheckContext, build_default_rulebase
from repro.core.state import LabState

from tests.test_core_rulebase import tiny_model

#: Sample width for the mutant-corpus differential; the nightly CI tier
#: raises this via the environment to sweep a much larger corpus.
SAMPLES = int(os.environ.get("COMPILED_DIFF_SAMPLES", "8"))


def _verdict(engine, state, call, **flags):
    ctx = CheckContext(state=state, call=call, model=tiny_model(), **flags)
    hit = engine.check_action(ctx)
    return (hit[0].rule_id, hit[1]) if hit else None


def _scenarios():
    """(state, call) pairs covering every rule plus clean passes."""
    cases = []

    def add(call, *entries):
        state = LabState()
        for var, key, value in entries:
            state.set(var, key, value)
        cases.append((state, call))

    arm = dict(robot="arm")
    add(ActionCall(ActionLabel.MOVE_ROBOT_INSIDE, "arm", location="doser_in", **arm),
        ("door_status", "doser", "closed"))                              # G1
    add(ActionCall(ActionLabel.CLOSE_DOOR, "doser"),
        ("robot_inside", "arm", "doser"))                                # G2
    add(ActionCall(ActionLabel.MOVE_ROBOT, "arm", target=(0.3, 0.0, 0.02), **arm))  # G3
    add(ActionCall(ActionLabel.PICK_OBJECT, "arm", location="slot", **arm),
        ("robot_holding", "arm", "v1"))                                  # G4
    add(ActionCall(ActionLabel.START_ACTION, "plate", value=60.0))       # G5
    add(ActionCall(ActionLabel.START_ACTION, "plate", value=60.0),
        ("container_at", "v1", "plate_top"),
        ("container_solid", "v1", 0.0))                                  # G6
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=5.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "on"),
        ("door_status", "doser", "closed"))                              # G7
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=15.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "off"),
        ("door_status", "doser", "closed"))                              # G8
    add(ActionCall(ActionLabel.START_DOSING, "doser", quantity=2.0),
        ("container_at", "v1", "doser_in"),
        ("container_stopper", "v1", "off"),
        ("door_status", "doser", "open"))                                # G9
    add(ActionCall(ActionLabel.OPEN_DOOR, "doser"),
        ("device_active", "doser", True))                                # G10
    add(ActionCall(ActionLabel.SET_ACTION_VALUE, "plate", value=150.0))  # G11
    add(ActionCall(ActionLabel.DOSE_LIQUID, "plate", quantity=2.0),
        ("container_at", "v1", "plate_top"),
        ("container_solid", "v1", 0.0))                                  # C1
    add(ActionCall(ActionLabel.PLACE_OBJECT, "arm", location="spin_slot", **arm),
        ("robot_holding", "arm", "v1"),
        ("container_solid", "v1", 5.0),
        ("container_liquid", "v1", 0.0),
        ("container_stopper", "v1", "on"),
        ("red_dot", "spin", "N"),
        ("door_status", "spin", "open"))                                 # C2
    add(ActionCall(ActionLabel.PLACE_OBJECT, "arm", location="slot", **arm))  # T2-place
    # Clean passes, including the raw-gripper exemption.
    add(ActionCall(ActionLabel.MOVE_ROBOT, "arm", target=(0.6, 0.5, 0.2), **arm))
    add(ActionCall(ActionLabel.OPEN_GRIPPER, "arm", location="slot", **arm))
    add(ActionCall(ActionLabel.GO_HOME, "arm", **arm))
    return cases


class TestScenarioDifferential:
    @pytest.mark.parametrize("flags", [
        {},
        {"account_held_objects": True,
         "enforce_workspace_bounds": True,
         "enforce_capacity": True},
    ])
    def test_every_scenario_agrees(self, flags):
        rulebase = build_default_rulebase(["C1", "C2", "C3", "C4"])
        compiled = rulebase.compile()
        disagreements = []
        for state, call in _scenarios():
            interpreted = _verdict(rulebase, state, call, **flags)
            fast = _verdict(compiled, state, call, **flags)
            if interpreted != fast:
                disagreements.append((call.label.value, interpreted, fast))
        assert not disagreements

    def test_scenarios_cover_every_rule(self):
        """The sweep is only convincing if it actually fires each rule."""
        rulebase = build_default_rulebase(["C1", "C2", "C3", "C4"])
        fired = set()
        for state, call in _scenarios():
            hit = _verdict(
                rulebase, state, call,
                account_held_objects=True, enforce_capacity=True,
            )
            if hit:
                fired.add(hit[0])
        expected = {"G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8",
                    "G9", "G10", "G11", "C1", "C2", "T2-place"}
        assert expected <= fired


def _strip_dispatch(events):
    """Events with ``verdict.dispatch`` removed — the only field the
    two recordings are allowed to differ in."""
    stripped = []
    for event in events:
        event = dict(event)
        verdict = dict(event["verdict"])
        assert verdict.pop("dispatch") in ("compiled", "interpreted")
        event["verdict"] = verdict
        stripped.append(event)
    return stripped


def _record(workload, dispatch, params=None):
    from repro.trace.workloads import record_workload

    params = dict(params or {})
    params["dispatch"] = dispatch
    return record_workload(workload, params)


WORKLOADS = [
    ("solubility", None),
    ("testbed", None),
    ("centrifuge", None),
    ("multi_door", None),
    ("bug", {"bug_id": "H1", "config": "modified"}),
]


class TestWorkloadDifferential:
    @pytest.mark.parametrize("workload,params", WORKLOADS,
                             ids=[w for w, _ in WORKLOADS])
    def test_traces_identical_up_to_dispatch_label(self, workload, params):
        compiled = _record(workload, "compiled", params)
        interpreted = _record(workload, "interpreted", params)
        assert _strip_dispatch(compiled.events) == _strip_dispatch(interpreted.events)
        assert compiled.footer["outcome"] == interpreted.footer["outcome"]
        assert compiled.footer["final_time"] == interpreted.footer["final_time"]
        for event in compiled.events:
            if event["verdict"]["cache"] != "hit":
                assert event["verdict"]["dispatch"] == "compiled"

    def test_unknown_dispatch_mode_rejected(self):
        with pytest.raises(KeyError, match="unknown dispatch mode"):
            _record("multi_door", "jit")


class TestMutantCorpusDifferential:
    @pytest.mark.parametrize("index", range(SAMPLES))
    def test_mutant_agrees_across_paths(self, index):
        from repro.core.monitor import RabitOptions
        from repro.faults.montecarlo import run_mutant_monitored

        outcomes = {}
        for mode in (True, False):
            options = RabitOptions.modified(compiled_dispatch=mode)
            description, result, _records = run_mutant_monitored(
                2024, index, options=options
            )
            outcomes[mode] = (
                description,
                result.completed,
                tuple(result.executed_nodes),
                str(result.alert) if result.alert else None,
                result.device_error,
                result.stopped_by_rabit,
            )
        assert outcomes[True] == outcomes[False]
