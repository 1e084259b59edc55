"""Named workflow presets: every experiment workflow, declaratively.

A *preset* is a parameterized builder that emits a
:class:`~repro.workflow.dag.WorkflowDAG` — the percell3
``WorkflowPreset`` idiom.  Builders are typed the same way steps are
(signature introspection), so ``--param`` values are validated before a
DAG is built.

Every preset is pinned to journal digests recorded from the deleted
hardcoded builders (``tests/test_workflow_presets.py``): same node ids
as their script line ids, same commands with the same positional/
keyword conventions, same virtual-clock timestamps.  The Bug A/B/C
presets are expressed as DAG surgery on the safe Fig. 5 preset —
exactly the ``DeleteLine``/``InsertAfter`` edits the §IV campaign
injects — and are pinned the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.workflow.context import WorkflowContext, build_context
from repro.workflow.dag import WorkflowDAG
from repro.workflow.executor import WorkflowRunResult, execute_dag
from repro.workflow.registry import (
    REGISTRY,
    StepError,
    StepParam,
    StepRegistry,
    _coerce,
    _introspect_params,
)

__all__ = [
    "Preset",
    "PRESETS",
    "preset",
    "build_preset",
    "list_presets",
    "run_preset",
    "preset_matrix",
]


@dataclass(frozen=True)
class Preset:
    """A registered preset: DAG builder + typed parameter table."""

    name: str
    builder: Callable[..., WorkflowDAG]
    params: Tuple[StepParam, ...]
    description: str

    def build(self, params: Optional[Mapping[str, Any]] = None) -> WorkflowDAG:
        """Validate *params* against the table and build the DAG."""
        given = dict(params or {})
        known = {p.name: p for p in self.params}
        for name in given:
            if name not in known:
                raise StepError(
                    f"preset {self.name!r} has no parameter {name!r}; "
                    f"parameters: {sorted(known)}"
                )
        bound: Dict[str, Any] = {}
        for param in self.params:
            if param.name in given:
                try:
                    bound[param.name] = _coerce(param.kind, given[param.name])
                except StepError as exc:
                    raise StepError(
                        f"preset {self.name!r}, parameter {param.name!r}: {exc}"
                    ) from None
            elif param.required:
                raise StepError(
                    f"preset {self.name!r} requires parameter {param.name!r}"
                )
            else:
                bound[param.name] = param.default
        return self.builder(**bound)

    def signature(self) -> str:
        """``name(param: kind = default, ...)`` for the catalog."""
        inner = ", ".join(p.describe() for p in self.params)
        return f"{self.name}({inner})"


#: name -> Preset; populated by the :func:`preset` decorator below.
PRESETS: Dict[str, Preset] = {}


def preset(name: str, description: str = "") -> Callable:
    """Register a DAG builder as preset *name*."""

    def register(fn: Callable[..., WorkflowDAG]) -> Callable[..., WorkflowDAG]:
        if name in PRESETS:
            raise StepError(f"preset {name!r} is already registered")
        import inspect

        PRESETS[name] = Preset(
            name=name,
            builder=fn,
            params=_introspect_params(name, fn, skip_first=False),
            description=description or (inspect.getdoc(fn) or "").split("\n")[0],
        )
        return fn

    return register


def build_preset(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> WorkflowDAG:
    """Build preset *name* with *params* (typed, validated)."""
    try:
        entry = PRESETS[name]
    except KeyError:
        raise StepError(
            f"unknown preset {name!r}; known: {sorted(PRESETS)}"
        ) from None
    return entry.build(params)


def list_presets() -> List[str]:
    """Registered preset names, sorted."""
    return sorted(PRESETS)


def run_preset(
    name: str,
    params: Optional[Mapping[str, Any]] = None,
    options: Any = None,
    monitored: bool = True,
    registry: StepRegistry = REGISTRY,
) -> Tuple[WorkflowDAG, WorkflowContext, WorkflowRunResult]:
    """Build, wire, and execute preset *name* end to end."""
    dag = build_preset(name, params)
    ctx = build_context(
        deck=dag.deck,
        deck_params=dag.deck_params,
        prepare=dag.prepare,
        options=options,
        monitored=monitored,
    )
    result = execute_dag(dag, ctx, registry)
    return dag, ctx, result


# ---------------------------------------------------------------------------
# Hein production presets (Fig. 1(b) API style: modeled wrapper commands)
# ---------------------------------------------------------------------------


@preset("solubility")
def _solubility(
    amount_mg: float = 5.0,
    initial_solvent_ml: float = 4.0,
    temperature: float = 60.0,
    dissolution_rounds: int = 2,
    centrifuge_rpm: float = 3000.0,
) -> WorkflowDAG:
    """The Fig. 1(b) automated solubility measurement (with the
    centrifugation leg that exercises the Table IV custom rules)."""
    dag = WorkflowDAG(
        "solubility",
        deck="hein",
        description="Fig. 1(b) solubility measurement incl. centrifugation",
    )
    robot, dosing, pump = "ur3e", "dosing_device", "syringe_pump"
    dag.then("decap", "decap_vial", vial="vial_1")
    dag.then("open_door_1", "open_door", device=dosing)
    dag.then("stage_grid", "move", robot=robot, location="grid_a1_safe")
    dag.then("pick_vial_grid", "pick_vial", robot=robot, location="grid_a1")
    dag.then("lift_grid", "move", robot=robot, location="grid_a1_safe")
    dag.then("approach_dosing", "move", robot=robot, location="dosing_approach")
    dag.then("place_vial_dosing", "place_vial", robot=robot, location="dosing_interior")
    dag.then("exit_dosing_1", "move", robot=robot, location="dosing_approach")
    dag.then("home_1", "go_home", robot=robot)
    dag.then("close_door_1", "close_door", device=dosing)
    dag.then("dose_solid", "dose_solid", device=dosing, amount_mg=amount_mg)
    dag.then("stop_dosing", "stop_action", device=dosing)
    dag.then("open_door_2", "open_door", device=dosing)
    dag.then("approach_dosing_2", "move", robot=robot, location="dosing_approach")
    dag.then("pick_vial_dosing", "pick_vial", robot=robot, location="dosing_interior")
    dag.then("exit_dosing_2", "move", robot=robot, location="dosing_approach")
    dag.then("close_door_2", "close_door", device=dosing)
    dag.then("stage_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then("place_vial_hotplate", "place_vial", robot=robot, location="hotplate_top")
    dag.then("clear_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then(
        "dose_initial_solvent",
        "dose_initial_solvent",
        device=pump,
        volume_ml=initial_solvent_ml,
    )
    dag.then("stir_initial", "stir_solution", device="hotplate", temperature=temperature)
    dag.then("stop_stir_initial", "stop_action", device="hotplate")
    for round_no in range(1, dissolution_rounds + 1):
        dag.then(f"dose_solvent_{round_no}", "dose_solvent", device=pump, volume_ml=2.0)
        dag.then(
            f"stir_{round_no}",
            "stir_solution",
            device="hotplate",
            temperature=temperature,
        )
        dag.then(f"stop_stir_{round_no}", "stop_action", device="hotplate")
    dag.then("pick_vial_hotplate", "pick_vial", robot=robot, location="hotplate_top")
    dag.then("lift_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then("cap", "cap_vial", vial="vial_1")
    dag.then("approach_centrifuge", "move", robot=robot, location="centrifuge_approach")
    dag.then(
        "place_vial_centrifuge", "place_vial", robot=robot, location="centrifuge_slot"
    )
    dag.then("exit_centrifuge", "move", robot=robot, location="centrifuge_approach")
    dag.then("close_lid", "close_door", device="centrifuge")
    dag.then("spin", "start_action", device="centrifuge", value=centrifuge_rpm)
    dag.then("stop_spin", "stop_action", device="centrifuge")
    dag.then("open_lid", "open_door", device="centrifuge")
    dag.then(
        "approach_centrifuge_2", "move", robot=robot, location="centrifuge_approach"
    )
    dag.then(
        "pick_vial_centrifuge", "pick_vial", robot=robot, location="centrifuge_slot"
    )
    dag.then("exit_centrifuge_2", "move", robot=robot, location="centrifuge_approach")
    dag.then("return_stage", "move", robot=robot, location="grid_a1_safe")
    dag.then("return_vial", "place_vial", robot=robot, location="grid_a1")
    dag.then("home_final", "go_home", robot=robot)
    return dag


@preset("crystallization")
def _crystallization(
    amount_mg: float = 4.0,
    solvent_ml: float = 3.0,
    shake_rpm: float = 800.0,
    vial_name: str = "vial_2",
) -> WorkflowDAG:
    """The Hein crystallization screen (thermoshaker leg, second grid
    vial, runs back-to-back with solubility)."""
    dag = WorkflowDAG(
        "crystallization",
        deck="hein",
        description="Hein crystallization screen (thermoshaker agitation)",
    )
    robot, dosing, pump = "ur3e", "dosing_device", "syringe_pump"
    dag.then("decap", "decap_vial", vial=vial_name)
    dag.then("open_door", "open_door", device=dosing)
    dag.then("stage_grid", "move", robot=robot, location="grid_a2_safe")
    dag.then("pick_grid", "pick_vial", robot=robot, location="grid_a2")
    dag.then("lift_grid", "move", robot=robot, location="grid_a2_safe")
    dag.then("approach_dosing", "move", robot=robot, location="dosing_approach")
    dag.then("place_dosing", "place_vial", robot=robot, location="dosing_interior")
    dag.then("exit_dosing", "move", robot=robot, location="dosing_approach")
    dag.then("close_door", "close_door", device=dosing)
    dag.then("dose_solid", "dose_solid", device=dosing, amount_mg=amount_mg)
    dag.then("stop_dosing", "stop_action", device=dosing)
    dag.then("reopen_door", "open_door", device=dosing)
    dag.then("approach_dosing_2", "move", robot=robot, location="dosing_approach")
    dag.then("pick_dosing", "pick_vial", robot=robot, location="dosing_interior")
    dag.then("exit_dosing_2", "move", robot=robot, location="dosing_approach")
    dag.then("close_door_2", "close_door", device=dosing)
    dag.then("stage_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then("place_hotplate", "place_vial", robot=robot, location="hotplate_top")
    dag.then("clear_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then("dose_solvent", "dose_solvent", device=pump, volume_ml=solvent_ml)
    dag.then("pick_hotplate", "pick_vial", robot=robot, location="hotplate_top")
    dag.then("lift_hotplate", "move", robot=robot, location="hotplate_safe")
    dag.then("stage_shaker", "move", robot=robot, location="shaker_safe")
    dag.then("place_shaker", "place_vial", robot=robot, location="shaker_top")
    dag.then("clear_shaker", "move", robot=robot, location="shaker_safe")
    dag.then("shake", "shake", device="thermoshaker", speed_rpm=shake_rpm)
    dag.then("stop_shake", "stop_action", device="thermoshaker")
    dag.then("restage_shaker", "move", robot=robot, location="shaker_safe")
    dag.then("pick_shaker", "pick_vial", robot=robot, location="shaker_top")
    dag.then("lift_shaker", "move", robot=robot, location="shaker_safe")
    dag.then("restage_grid", "move", robot=robot, location="grid_a2_safe")
    dag.then("return_vial", "place_vial", robot=robot, location="grid_a2")
    dag.then("cap", "cap_vial", vial=vial_name)
    dag.then("home", "go_home", robot=robot)
    return dag


# ---------------------------------------------------------------------------
# Berlinguette spray-coating presets
# ---------------------------------------------------------------------------


@preset("spray_coating")
def _spray_coating(solvent_only: bool = False) -> WorkflowDAG:
    """The §V-B spray-coating run; ``solvent_only=True`` reproduces the
    runs that break the Hein solids-before-liquids invariant."""
    suffix = "_solvent_only" if solvent_only else ""
    dag = WorkflowDAG(
        f"spray_coating{suffix}",
        deck="berlinguette",
        description="Berlinguette spray coating (decap, dose, spin, spray)",
    )
    robot, dosing = "ur5e", "dosing_device"
    dag.then("stage_grid", "move", robot=robot, location="bgrid_1_safe")
    dag.then("pick_grid", "pick_vial", robot=robot, location="bgrid_1")
    dag.then("lift_grid", "move", robot=robot, location="bgrid_1_safe")
    dag.then("stage_decapper", "move", robot=robot, location="decapper_safe")
    dag.then("place_decapper", "place_vial", robot=robot, location="decapper_slot")
    dag.then("clear_decapper", "move", robot=robot, location="decapper_safe")
    dag.then("decap", "decap", device="decapper")
    dag.then("pick_decapper", "pick_vial", robot=robot, location="decapper_slot")
    dag.then("lift_decapper", "move", robot=robot, location="decapper_safe")
    if not solvent_only:
        dag.then("open_door", "open_door", device=dosing)
        dag.then("approach_dosing", "move", robot=robot, location="bdosing_approach")
        dag.then("place_dosing", "place_vial", robot=robot, location="bdosing_interior")
        dag.then("exit_dosing", "move", robot=robot, location="bdosing_approach")
        dag.then("close_door", "close_door", device=dosing)
        dag.then("dose_solid", "dose_solid", device=dosing, amount_mg=4.0)
        dag.then("stop_dose", "stop_action", device=dosing)
        dag.then("reopen_door", "open_door", device=dosing)
        dag.then("approach_dosing_2", "move", robot=robot, location="bdosing_approach")
        dag.then("pick_dosing", "pick_vial", robot=robot, location="bdosing_interior")
        dag.then("exit_dosing_2", "move", robot=robot, location="bdosing_approach")
        dag.then("close_door_2", "close_door", device=dosing)
    dag.then("stage_coater", "move", robot=robot, location="coater_safe")
    dag.then("place_coater", "place_vial", robot=robot, location="coater_top")
    dag.then("clear_coater", "move", robot=robot, location="coater_safe")
    dag.then("dose_solvent", "dose_solvent", device="syringe_pump", volume_ml=3.0)
    dag.then("spin", "start_action", device="spin_coater", value=2000.0)
    dag.then("stop_spin", "stop_action", device="spin_coater")
    dag.then("spray", "start_action", device="nozzle", value=30.0)
    dag.then("stop_spray", "stop_action", device="nozzle")
    dag.then("pick_coater", "pick_vial", robot=robot, location="coater_top")
    dag.then("lift_coater", "move", robot=robot, location="coater_safe")
    dag.then("restage_grid", "move", robot=robot, location="bgrid_1_safe")
    dag.then("return_vial", "place_vial", robot=robot, location="bgrid_1")
    dag.then("home", "go_home", robot=robot)
    return dag


# ---------------------------------------------------------------------------
# Testbed presets (Fig. 5 API style: script-level helpers, raw commands)
# ---------------------------------------------------------------------------


def _fig5_dag(name: str) -> WorkflowDAG:
    """The safe Fig. 5 two-arm workflow, shared by the bug variants."""
    dag = WorkflowDAG(
        name,
        deck="testbed",
        description="Fig. 5 safe two-arm testbed workflow (plus Ned2 tail)",
    )
    dosing = "dosing_device"
    dag.then("open_door_initial", "set_door", device=dosing, state="open")
    dag.then("decap_vial", "decap_vial", vial="vial_t1")
    dag.then("home_1", "go_home", robot="viperx")
    dag.then(
        "pick_grid",
        "pick_up_object",
        robot="viperx",
        safe_location="grid_nw_viperx_safe",
        pickup_location="grid_nw_viperx",
    )
    dag.then("place_dosing", "place_into_dosing", robot="viperx")
    dag.then("home_2", "go_home", robot="viperx")
    dag.then("close_door_before_dose", "set_door", device=dosing, state="closed")
    dag.then("run_dosing", "run_action", device=dosing, delay=3.0, quantity=5.0)
    dag.then("stop_dosing", "stop_action", device=dosing)
    dag.then("open_door_after_dose", "set_door", device=dosing, state="open")
    dag.then("pick_dosing", "pick_from_dosing", robot="viperx")
    dag.then(
        "place_grid",
        "place_object",
        robot="viperx",
        safe_location="grid_nw_viperx_safe",
        place_location="grid_nw_viperx",
    )
    dag.then("close_door_final", "set_door", device=dosing, state="closed")
    dag.then("home_3", "go_home", robot="viperx")
    dag.then("sleep_viperx", "go_sleep", robot="viperx")
    dag.then(
        "ned2_pick_grid",
        "pick_up_object",
        robot="ned2",
        safe_location="grid_ne_ned2_safe",
        pickup_location="grid_ne_ned2",
    )
    dag.then(
        "ned2_place_grid",
        "place_object",
        robot="ned2",
        safe_location="grid_ne_ned2_safe",
        place_location="grid_ne_ned2",
    )
    dag.then("ned2_sleep", "go_sleep", robot="ned2")
    return dag


@preset("testbed_fig5")
def _testbed_fig5() -> WorkflowDAG:
    """The safe Fig. 5 testbed workflow."""
    return _fig5_dag("testbed_fig5")


@preset("testbed_bug_a")
def _testbed_bug_a() -> WorkflowDAG:
    """Bug A (campaign H1): the door-reopen line is dropped; the arm
    drives into the closed dosing device."""
    dag = _fig5_dag("testbed_bug_a")
    dag.drop("open_door_after_dose")
    dag.description = "Fig. 5 with Bug A: open_door_after_dose deleted"
    return dag


@preset("testbed_bug_b")
def _testbed_bug_b() -> WorkflowDAG:
    """Bug B (campaign MH4): Ned2 commanded next to the grid while
    ViperX is stationed there (no common frame of reference)."""
    dag = _fig5_dag("testbed_bug_b")
    dag.insert_after(
        "place_grid",
        "ned2_random_move",
        "move_pose",
        robot="ned2",
        target=[0.365, -0.010, 0.192],
    )
    dag.description = "Fig. 5 with Bug B: stray ned2.move_pose after place_grid"
    return dag


@preset("testbed_bug_c")
def _testbed_bug_c() -> WorkflowDAG:
    """Bug C (campaign L2): the pick-up call is omitted; the experiment
    continues without a vial (never detectable without a pressure
    sensor)."""
    dag = _fig5_dag("testbed_bug_c")
    dag.drop("pick_grid")
    dag.description = "Fig. 5 with Bug C: pick_grid deleted"
    return dag


@preset("centrifuge")
def _centrifuge(spin_rpm: float = 3000.0) -> WorkflowDAG:
    """The testbed centrifugation leg: cap the pre-filled vial, ferry it
    into the mock centrifuge, spin, and return it (lid rules G9/G10,
    spin threshold G11, Table IV custom rules at place time)."""
    dag = WorkflowDAG(
        "centrifuge",
        deck="testbed",
        description="Testbed centrifugation leg (prepared vial, lid + spin rules)",
        prepare=[
            {"vial": "vial_t1", "solid_mg": 5.0, "liquid_ml": 5.0, "stoppered": False}
        ],
    )
    dag.then("cap_vial", "cap_vial", vial="vial_t1")
    dag.then("home_1", "go_home", robot="viperx")
    dag.then(
        "pick_grid",
        "pick_up_object",
        robot="viperx",
        safe_location="grid_nw_viperx_safe",
        pickup_location="grid_nw_viperx",
    )
    dag.then(
        "place_centrifuge",
        "place_object",
        robot="viperx",
        safe_location="centrifuge_approach_viperx",
        place_location="centrifuge_slot_viperx",
    )
    dag.then("home_2", "go_home", robot="viperx")
    dag.then("close_lid", "set_door", device="centrifuge", state="closed")
    dag.then("spin", "start_action", device="centrifuge", value=spin_rpm)
    dag.then("stop_spin", "stop_action", device="centrifuge")
    dag.then("open_lid", "set_door", device="centrifuge", state="open")
    dag.then(
        "pick_centrifuge",
        "pick_up_object",
        robot="viperx",
        safe_location="centrifuge_approach_viperx",
        pickup_location="centrifuge_slot_viperx",
    )
    dag.then(
        "place_grid",
        "place_object",
        robot="viperx",
        safe_location="grid_nw_viperx_safe",
        place_location="grid_nw_viperx",
    )
    dag.then("home_3", "go_home", robot="viperx")
    dag.then("sleep_viperx", "go_sleep", robot="viperx")
    return dag


# ---------------------------------------------------------------------------
# Two-door preset
# ---------------------------------------------------------------------------


@preset("two_door")
def _two_door(amount_mg: float = 3.0) -> WorkflowDAG:
    """The §V-C simultaneous-access workflow: both arms enter the shared
    device through their own doors, retreat, then it doses."""
    dag = WorkflowDAG(
        "two_door",
        deck="two_door",
        description="§V-C two-door simultaneous access (per-door G1/G2, G9)",
    )
    dag.then("open_front", "open_door", device="mdoser", door="front")
    dag.then("open_back", "open_door", device="mdoser", door="back")
    dag.then("viperx_approach", "move", robot="viperx", location="front_approach")
    dag.then("viperx_enter", "move", robot="viperx", location="mdoser_front")
    dag.then("ned2_approach", "move", robot="ned2", location="back_approach")
    dag.then("ned2_enter", "move", robot="ned2", location="mdoser_back")
    dag.then("viperx_exit", "move", robot="viperx", location="front_approach")
    dag.then("ned2_exit", "move", robot="ned2", location="back_approach")
    dag.then("close_front", "close_door", device="mdoser", door="front")
    dag.then("close_back", "close_door", device="mdoser", door="back")
    dag.then("dose", "dose_solid", device="mdoser", amount_mg=amount_mg)
    dag.then("stop_dosing", "stop_action", device="mdoser")
    dag.then("viperx_sleep", "go_sleep", robot="viperx")
    dag.then("ned2_sleep", "go_sleep", robot="ned2")
    return dag


# ---------------------------------------------------------------------------
# The parameterized preset matrix
# ---------------------------------------------------------------------------


def preset_matrix() -> List[Tuple[str, Dict[str, Any]]]:
    """The scenario matrix: every preset crossed with meaningful
    parameter variations — the mass-produced diversity the north star
    asks for.  Each entry is ``(preset_name, params)``; all entries
    build valid DAGs, and the matrix suite executes a rotating subset
    end to end."""
    matrix: List[Tuple[str, Dict[str, Any]]] = []
    for rounds in (1, 2, 3):
        for temperature in (40.0, 60.0):
            matrix.append(
                ("solubility",
                 {"dissolution_rounds": rounds, "temperature": temperature})
            )
    for amount in (3.0, 5.0):
        matrix.append(("solubility", {"amount_mg": amount}))
    for rpm in (600.0, 800.0, 1200.0):
        matrix.append(("crystallization", {"shake_rpm": rpm}))
    matrix.append(("crystallization", {"vial_name": "vial_2", "solvent_ml": 2.0}))
    matrix.append(("spray_coating", {}))
    matrix.append(("spray_coating", {"solvent_only": True}))
    matrix.append(("testbed_fig5", {}))
    for rpm in (2000.0, 3000.0):
        matrix.append(("centrifuge", {"spin_rpm": rpm}))
    for amount in (2.0, 3.0):
        matrix.append(("two_door", {"amount_mg": amount}))
    return matrix
