"""Tests for running workflows as script statements: execution order,
stop conditions, and the preset node ids the fault injector targets."""

import pytest

from repro.core.errors import Alert, AlertKind, SafetyViolation
from repro.kinematics.arm import UnreachableTargetError
from repro.workflow import StepRegistry, WorkflowDAG, build_preset, execute_dag


def run_script(*steps):
    """Execute a linear DAG whose node ``n`` runs ``steps[n]`` (a plain
    callable) through a sandboxed one-step registry."""
    registry = StepRegistry()

    @registry.step("call")
    def _call(ctx, index: int) -> None:
        steps[index]()

    dag = WorkflowDAG("script")
    for index in range(len(steps)):
        dag.then(f"l{index}", "call", index=index)
    return execute_dag(dag, None, registry=registry)


class TestRunWorkflow:
    def test_runs_all_lines_in_order(self):
        seen = []
        result = run_script(*(lambda i=i: seen.append(i) for i in range(4)))
        assert result.completed
        assert seen == [0, 1, 2, 3]
        assert result.executed_nodes == ["l0", "l1", "l2", "l3"]

    def test_stops_on_safety_violation(self):
        alert = Alert(AlertKind.INVALID_COMMAND, "nope", rule_id="G1")

        def boom():
            raise SafetyViolation(alert)

        result = run_script(lambda: None, boom, lambda: None)
        assert not result.completed
        assert result.stopped_by_rabit
        assert result.alert is alert
        assert result.executed_nodes == ["l0"]

    def test_stops_on_device_error(self):
        def boom():
            raise UnreachableTargetError("ned2", (0, 0, 5), 3.0)

        result = run_script(boom)
        assert not result.completed
        assert result.stopped_by_device and not result.stopped_by_rabit
        assert "ned2" in result.device_error

    def test_other_exceptions_propagate(self):
        def boom():
            raise RuntimeError("unexpected")

        with pytest.raises(RuntimeError):
            run_script(boom)


class TestWorkflowBuilders:
    def test_solubility_line_ids_unique(self):
        dag = build_preset("solubility")
        ids = list(dag.nodes)
        assert len(dag.edges) == len(ids) - 1  # one linear script
        assert "dose_solid" in ids and "place_vial_centrifuge" in ids

    def test_testbed_line_ids_cover_fig5_annotations(self):
        ids = build_preset("testbed_fig5").nodes
        # The mutation anchor points of Bugs A and C must exist.
        assert "open_door_after_dose" in ids  # Fig. 5 line 23 (Bug A)
        assert "pick_grid" in ids  # Fig. 5 line 15 (Bug C)
        assert "place_grid" in ids  # Fig. 5 line 26

    def test_centrifuge_leg_has_cap_line(self):
        dag = build_preset("centrifuge")
        assert dag.entry == "cap_vial"  # the H6 deletion target
        assert "spin" in dag.nodes

    def test_dissolution_rounds_scale_line_count(self):
        short = build_preset("solubility", {"dissolution_rounds": 1})
        long = build_preset("solubility", {"dissolution_rounds": 3})
        assert len(long.nodes) == len(short.nodes) + 6  # 3 lines per extra round


class TestHelpers:
    def test_pick_place_helpers_trace_constituents(self):
        from repro.workflow import build_context

        ctx = build_context("testbed", {"noise_sigma": 0.0})
        pick = WorkflowDAG("pick", deck="testbed")
        pick.then(
            "pick", "pick_up_object", robot="viperx",
            safe_location="grid_nw_viperx_safe", pickup_location="grid_nw_viperx",
        )
        assert execute_dag(pick, ctx).completed
        methods = [r.method for r in ctx.trace]
        assert methods == [
            "move_to_location",
            "open_gripper",
            "move_to_location",
            "close_gripper",
            "move_to_location",
        ]
        assert ctx.deck.viperx.holding == "vial_t1"
        place = WorkflowDAG("place", deck="testbed")
        place.then(
            "place", "place_object", robot="viperx",
            safe_location="grid_nw_viperx_safe", place_location="grid_nw_viperx",
        )
        assert execute_dag(place, ctx).completed
        assert ctx.deck.viperx.holding is None
        assert ctx.world.occupant("grid_nw_viperx") == "vial_t1"
