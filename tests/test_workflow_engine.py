"""Unit tests for the workflow engine: registry typing, DAG model,
surgery, validation, and executor semantics (all on sandboxed step sets
— no deck is ever built here, so this module stays fast)."""

import pytest

from repro.core.errors import Alert, AlertKind, SafetyViolation
from repro.kinematics.arm import UnreachableTargetError
from repro.workflow import (
    REGISTRY,
    StepError,
    StepRegistry,
    WorkflowDAG,
    WorkflowError,
    execute_dag,
)

ALERT = Alert(
    kind=AlertKind.INVALID_COMMAND,
    message="door is closed",
    command="robot.move(x)",
    rule_id="G1",
    involved=("robot", "door"),
)
ALERT_2 = Alert(kind=AlertKind.INVALID_TRAJECTORY, message="collision ahead")


def sandbox():
    """A tiny step set over a list-of-calls 'context'."""
    reg = StepRegistry()

    @reg.step("note", "append a tag")
    def _note(ctx, tag: str) -> None:
        ctx.append(tag)

    @reg.step("boom")
    def _boom(ctx, alert_no: int = 1) -> None:
        raise SafetyViolation(ALERT if alert_no == 1 else ALERT_2)

    @reg.step("jam")
    def _jam(ctx) -> None:
        raise UnreachableTargetError("arm", (9.0, 9.0, 9.0), 8.5)

    return reg


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_introspects_typed_params(self):
        reg = StepRegistry()

        @reg.step("demo")
        def _demo(ctx, robot: str, speed: float = 1.5, count: int = 2) -> None:
            pass

        spec = reg.get("demo")
        assert [p.name for p in spec.params] == ["robot", "speed", "count"]
        assert [p.kind for p in spec.params] == ["str", "float", "int"]
        assert spec.params[0].required and not spec.params[1].required
        assert spec.params[1].default == 1.5
        assert spec.signature() == "demo(robot: str, speed: float = 1.5, count: int = 2)"

    def test_quoted_annotations_resolve(self):
        """String annotations (PEP 563 and quoted kinds) map to kinds."""
        reg = StepRegistry()

        @reg.step("loc")
        def _loc(ctx, where: "location", target: "coords" = None) -> None:  # noqa: F821
            pass

        spec = reg.get("loc")
        assert [p.kind for p in spec.params] == ["location", "coords"]

    def test_rejects_unannotated_and_unknown_annotations(self):
        reg = StepRegistry()
        with pytest.raises(StepError, match="needs a type annotation"):
            reg.register("bad", lambda ctx, x: None)
        with pytest.raises(StepError, match="unsupported annotation"):

            @reg.step("worse")
            def _worse(ctx, x: dict) -> None:
                pass

    def test_rejects_varargs_and_duplicates(self):
        reg = StepRegistry()
        with pytest.raises(StepError, match="are not allowed"):

            @reg.step("splat")
            def _splat(ctx, *args: str) -> None:
                pass

        reg.register("once", lambda ctx: None)
        with pytest.raises(StepError, match="already registered"):
            reg.register("once", lambda ctx: None)

    def test_rejects_contextless_step(self):
        reg = StepRegistry()
        with pytest.raises(StepError, match="context argument"):
            reg.register("nullary", lambda: None)

    def test_unknown_step_names_candidates(self):
        reg = sandbox()
        with pytest.raises(StepError, match="unknown step 'nope'.*boom"):
            reg.get("nope")

    def test_bind_fills_defaults_and_coerces_ints(self):
        reg = sandbox()
        assert reg.get("boom").bind({}) == {"alert_no": 1}

        @reg.step("speedy")
        def _speedy(ctx, speed: float) -> None:
            pass

        bound = reg.get("speedy").bind({"speed": 3})
        assert bound == {"speed": 3.0} and isinstance(bound["speed"], float)

    def test_bind_errors_name_the_parameter(self):
        reg = sandbox()
        with pytest.raises(StepError, match="no parameter 'bogus'"):
            reg.get("note").bind({"bogus": 1})
        with pytest.raises(StepError, match="requires parameter 'tag'"):
            reg.get("note").bind({})
        with pytest.raises(StepError, match="parameter 'tag'.*expected a string"):
            reg.get("note").bind({"tag": 7})

    def test_bool_is_not_a_number(self):
        reg = StepRegistry()

        @reg.step("num")
        def _num(ctx, x: float) -> None:
            pass

        with pytest.raises(StepError, match="expected a number"):
            reg.get("num").bind({"x": True})

    def test_coords_and_location_kinds(self):
        reg = StepRegistry()

        @reg.step("go")
        def _go(ctx, where: "location") -> None:  # noqa: F821
            pass

        spec = reg.get("go")
        assert spec.bind({"where": "grid_a1"}) == {"where": "grid_a1"}
        assert spec.bind({"where": [1, 2, 3]}) == {"where": [1.0, 2.0, 3.0]}
        with pytest.raises(StepError, match="location name or a list"):
            spec.bind({"where": [1, 2]})

    def test_builtin_library_is_loaded(self):
        """Importing repro.workflow populates the default registry."""
        for name in ("move", "set_door", "run_action", "pick_up_object"):
            assert name in REGISTRY.list_steps()


# ---------------------------------------------------------------------------
# DAG model, surgery, validation, spec round-trip
# ---------------------------------------------------------------------------


def linear_dag(reg=None):
    dag = WorkflowDAG("lin", deck="testbed")
    dag.then("a", "note", tag="a")
    dag.then("b", "note", tag="b")
    dag.then("c", "note", tag="c")
    return dag


class TestDag:
    def test_then_chains_success_edges(self):
        dag = linear_dag()
        assert dag.entry == "a"
        assert dag.successor("a", "success") == "b"
        assert dag.successor("b", "success") == "c"
        assert dag.successor("c", "success") is None

    def test_duplicate_node_and_edge_rejected(self):
        dag = linear_dag()
        with pytest.raises(WorkflowError, match="duplicate node id"):
            dag.add_node("a", "note")
        with pytest.raises(WorkflowError, match="already has a success edge"):
            dag.edge("a", "c")
        with pytest.raises(WorkflowError, match="outcome must be one of"):
            dag.edge("c", "a", on="maybe")

    def test_drop_splices_middle_and_entry(self):
        dag = linear_dag()
        dag.drop("b")
        assert dag.successor("a", "success") == "c"
        assert "b" not in dag.nodes
        dag.drop("a")
        assert dag.entry == "c"
        with pytest.raises(WorkflowError, match="unknown node"):
            dag.drop("zzz")

    def test_insert_after_splices(self):
        dag = linear_dag()
        dag.insert_after("a", "x", "note", tag="x")
        assert dag.successor("a", "success") == "x"
        assert dag.successor("x", "success") == "b"
        dag.insert_after("c", "tail", "note", tag="t")
        assert dag.successor("c", "success") == "tail"
        dag.then("after_tail", "note", tag="z")  # _tail advanced to the insert
        assert dag.successor("tail", "success") == "after_tail"
        with pytest.raises(WorkflowError, match="unknown node"):
            dag.insert_after("zzz", "y", "note")

    def test_swap_trades_places_in_edges_and_entry(self):
        dag = linear_dag()
        dag.edge("b", "a", on="failure")
        dag.swap("a", "b")
        assert dag.entry == "b"
        assert dag.successor("b", "success") == "a"
        assert dag.successor("a", "success") == "c"
        assert dag.successor("a", "failure") == "b"  # edges move, not nodes
        dag.then("d", "note", tag="d")
        dag.swap("d", "b")  # the tail moves too: later nodes chain from it
        dag.then("e", "note", tag="e")
        assert dag.successor("b", "success") == "e"
        with pytest.raises(WorkflowError, match="unknown node"):
            dag.swap("a", "zzz")

    def test_validate_walks_a_deep_linear_dag(self):
        reg = sandbox()
        deep = WorkflowDAG("deep")
        for index in range(5000):
            deep.then(f"n{index}", "note", tag="x")
        deep.validate(reg)  # no RecursionError
        deep.edge("n4999", "n0")
        with pytest.raises(WorkflowError, match="has a cycle: n0 -> n1 -> .* -> n4999 -> n0"):
            deep.validate(reg)

    def test_validate_catches_structural_errors(self):
        reg = sandbox()
        empty = WorkflowDAG("empty")
        with pytest.raises(WorkflowError, match="has no nodes"):
            empty.validate(reg)

        dangling = linear_dag()
        dangling.edges.append(type(dangling.edges[0])("c", "ghost", "success"))
        with pytest.raises(WorkflowError, match="unknown node 'ghost'"):
            dangling.validate(reg)

        orphaned = linear_dag()
        orphaned.add_node("island", "note", {"tag": "i"})
        with pytest.raises(WorkflowError, match="unreachable nodes.*island"):
            orphaned.validate(reg)

    def test_validate_catches_cycles(self):
        reg = sandbox()
        cyclic = WorkflowDAG("cyc")
        cyclic.then("a", "note", tag="a")
        cyclic.then("b", "note", tag="b")
        cyclic.edge("b", "a", on="failure")  # any outcome edge can close a loop
        with pytest.raises(WorkflowError, match="has a cycle"):
            cyclic.validate(reg)

    def test_validate_names_the_offending_node(self):
        reg = sandbox()
        dag = WorkflowDAG("bad")
        dag.then("first", "note", tag="ok")
        dag.then("second", "note", tag=42)
        with pytest.raises(StepError, match="node 'second'.*expected a string"):
            dag.validate(reg)
        unknown = WorkflowDAG("worse")
        unknown.then("only", "not_a_step")
        with pytest.raises(StepError, match="unknown step"):
            unknown.validate(reg)

    def test_spec_round_trip_is_identity(self):
        dag = linear_dag()
        dag.edge("a", "c", on="failure")
        dag.deck_params = {"noise_sigma": 0.001}
        dag.prepare = [{"vial": "vial_t1", "solid_mg": 2.0}]
        clone = WorkflowDAG.from_spec(dag.to_spec())
        assert clone.spec_bytes() == dag.spec_bytes()
        assert clone.entry == "a" and clone.deck == "testbed"

    def test_from_spec_rejects_bad_schema_and_shapes(self):
        with pytest.raises(WorkflowError, match="unsupported workflow spec schema"):
            WorkflowDAG.from_spec({"schema": "repro.workflow/v99"})
        spec = linear_dag().to_spec()
        spec["nodes"].append({"step": "note"})  # missing id
        with pytest.raises(WorkflowError, match="malformed node entry"):
            WorkflowDAG.from_spec(spec)
        spec = linear_dag().to_spec()
        spec["edges"].append({"from": "a"})  # missing "to"
        with pytest.raises(WorkflowError, match="malformed edge entry"):
            WorkflowDAG.from_spec(spec)

    @pytest.mark.parametrize(
        "spec",
        [[], "text", 7, None],
        ids=["array", "string", "number", "null"],
    )
    def test_from_spec_rejects_a_non_object_spec(self, spec):
        with pytest.raises(WorkflowError, match="must be a JSON object"):
            WorkflowDAG.from_spec(spec)

    @pytest.mark.parametrize("params", ["tag=a", ["a"], 3])
    def test_from_spec_rejects_non_object_params(self, params):
        spec = linear_dag().to_spec()
        spec["nodes"][0]["params"] = params
        with pytest.raises(WorkflowError, match="params must be an object"):
            WorkflowDAG.from_spec(spec)
        spec["nodes"][0] = "a"
        with pytest.raises(WorkflowError, match="malformed node entry"):
            WorkflowDAG.from_spec(spec)


# ---------------------------------------------------------------------------
# Executor
# ---------------------------------------------------------------------------


class TestExecutor:
    def test_clean_run_executes_every_node(self):
        reg = sandbox()
        calls = []
        result = execute_dag(linear_dag(), calls, registry=reg)
        assert result.completed and not result.recovered
        assert result.executed_nodes == ["a", "b", "c"]
        assert calls == ["a", "b", "c"]
        assert not result.stopped_by_rabit and not result.stopped_by_device

    def test_safety_violation_without_failure_edge_halts(self):
        reg = sandbox()
        dag = WorkflowDAG("halt")
        dag.then("ok", "note", tag="ok")
        dag.then("bad", "boom")
        dag.then("never", "note", tag="never")
        calls = []
        result = execute_dag(dag, calls, registry=reg)
        assert not result.completed and not result.recovered
        assert result.executed_nodes == ["ok"]  # the failing node is excluded
        assert calls == ["ok"]
        assert result.alert is ALERT and result.stopped_by_rabit

    def test_failure_edge_recovers_and_keeps_first_alert(self):
        reg = sandbox()
        dag = WorkflowDAG("recover")
        dag.then("bad1", "boom", alert_no=1)
        dag.then("bad2", "boom", alert_no=2)
        dag.then("unreached", "note", tag="x")
        dag.add_node("cleanup", "note", {"tag": "cleanup"})
        dag.edge("bad1", "bad2", on="failure")
        dag.edge("bad2", "cleanup", on="failure")
        result = execute_dag(dag, calls := [], registry=reg)
        assert result.recovered and not result.completed
        assert result.alert is ALERT  # first alert retained, second dropped
        assert result.executed_nodes == ["cleanup"]
        assert calls == ["cleanup"]

    def test_device_error_routes_through_failure_edge(self):
        reg = sandbox()
        dag = WorkflowDAG("jammed")
        dag.then("jam", "jam")
        dag.add_node("cleanup", "note", {"tag": "c"})
        dag.edge("jam", "cleanup", on="failure")
        result = execute_dag(dag, [], registry=reg)
        assert result.recovered and not result.completed
        assert "cannot compute a trajectory" in result.device_error
        assert result.stopped_by_device and not result.stopped_by_rabit

    def test_device_error_without_edge_halts(self):
        reg = sandbox()
        dag = WorkflowDAG("jam_halt")
        dag.then("jam", "jam")
        result = execute_dag(dag, [], registry=reg)
        assert not result.completed and "cannot compute a trajectory" in result.device_error

    def test_invalid_dag_never_runs(self):
        reg = sandbox()
        dag = WorkflowDAG("invalid")
        dag.then("good", "note", tag="g")
        dag.then("typo", "note", tag=1)
        calls = []
        with pytest.raises(StepError, match="node 'typo'"):
            execute_dag(dag, calls, registry=reg)
        assert calls == []  # validation precedes the first command
