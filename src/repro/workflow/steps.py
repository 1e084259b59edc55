"""The built-in step library: every lab primitive as a registered step.

Each step wraps one script statement's worth of guarded device commands
with the exact positional/keyword convention of the paper's scripts,
because :class:`~repro.core.interceptor.CommandRecord` captures
positional arguments only and the presets are pinned to journal digests
recorded from the deleted hardcoded builders.
(``run_action(delay=3, quantity=5)`` stays keyword-form;
``set_door("state", "open")`` stays positional.)

Two tiers:

- **raw** steps issue a single device command (``move``, ``dose_solid``);
- **composite** steps reproduce the Fig. 5 script-level helpers
  (``pick_up_object`` et al.), which decompose into several individually
  traced commands — one step still equals one script line, so DAG node
  surgery (drop/insert/swap) lands at the granularity the fault
  injector mutates.
"""

from __future__ import annotations

from repro.workflow.context import WorkflowContext
from repro.workflow.registry import step

__all__: list = []  # steps are reached through the registry, not imports


# ---------------------------------------------------------------------------
# Raw robot steps
# ---------------------------------------------------------------------------


@step("move")
def _move(ctx: WorkflowContext, robot: str, location: "location") -> None:
    """Move *robot* to a named location (or explicit ``[x, y, z]``)."""
    ctx.proxy(robot).move_to_location(location)


@step("move_pose")
def _move_pose(ctx: WorkflowContext, robot: str, target: "coords") -> None:
    """Move *robot* to raw coordinates in its own frame (no location
    semantics — the Bug B ``ned2.move_pose(random_location)`` call)."""
    ctx.proxy(robot).move_pose(target)


@step("pick_vial")
def _pick_vial(ctx: WorkflowContext, robot: str, location: str) -> None:
    """Modeled wrapper pick: RABIT's container tracking stays reliable."""
    ctx.proxy(robot).pick_up_vial(location)


@step("place_vial")
def _place_vial(ctx: WorkflowContext, robot: str, location: str) -> None:
    """Modeled wrapper place (the production-API style)."""
    ctx.proxy(robot).place_vial(location)


@step("open_gripper")
def _open_gripper(ctx: WorkflowContext, robot: str) -> None:
    """Open *robot*'s gripper."""
    ctx.proxy(robot).open_gripper()


@step("close_gripper")
def _close_gripper(ctx: WorkflowContext, robot: str) -> None:
    """Close *robot*'s gripper."""
    ctx.proxy(robot).close_gripper()


@step("go_home")
def _go_home(ctx: WorkflowContext, robot: str) -> None:
    """Send *robot* to its home pose."""
    ctx.proxy(robot).go_to_home_pose()


@step("go_sleep")
def _go_sleep(ctx: WorkflowContext, robot: str) -> None:
    """Send *robot* to its sleep pose."""
    ctx.proxy(robot).go_to_sleep_pose()


# ---------------------------------------------------------------------------
# Door / dosing / action-device steps
# ---------------------------------------------------------------------------


@step("open_door")
def _open_door(ctx: WorkflowContext, device: str, door: str = "") -> None:
    """Open *device*'s door; *door* names one door of a multi-door
    device (``mdoser.open_door("front")``)."""
    proxy = ctx.proxy(device)
    if door:
        proxy.open_door(door)
    else:
        proxy.open_door()


@step("close_door")
def _close_door(ctx: WorkflowContext, device: str, door: str = "") -> None:
    """Close *device*'s door (or one named door)."""
    proxy = ctx.proxy(device)
    if door:
        proxy.close_door(door)
    else:
        proxy.close_door()


@step("set_door")
def _set_door(ctx: WorkflowContext, device: str, state: str) -> None:
    """The Fig. 5 property-style door command:
    ``set_door("state", "open"/"closed")``."""
    ctx.proxy(device).set_door("state", state)


@step("dose_solid")
def _dose_solid(ctx: WorkflowContext, device: str, amount_mg: float) -> None:
    """Dose *amount_mg* of solid from a dosing device."""
    ctx.proxy(device).dose_solid(amount_mg)


@step("run_action")
def _run_action(
    ctx: WorkflowContext, device: str, delay: float = 0.0, quantity: float = 0.0
) -> None:
    """The Fig. 5 ``run_action(delay=…, quantity=…)`` dosing command
    (keyword form, exactly as the testbed script issues it)."""
    ctx.proxy(device).run_action(delay=delay, quantity=quantity)


@step("stop_action")
def _stop_action(ctx: WorkflowContext, device: str) -> None:
    """Stop *device*'s running action (dosing, stirring, spinning…)."""
    ctx.proxy(device).stop_action()


@step("start_action")
def _start_action(ctx: WorkflowContext, device: str, value: float) -> None:
    """Start *device*'s action with a set-point (e.g. centrifuge rpm)."""
    ctx.proxy(device).start_action(value)


@step("dose_solvent")
def _dose_solvent(ctx: WorkflowContext, device: str, volume_ml: float) -> None:
    """Dispense *volume_ml* of solvent from a syringe pump."""
    ctx.proxy(device).dose_solvent(volume_ml)


@step("dose_initial_solvent")
def _dose_initial_solvent(
    ctx: WorkflowContext, device: str, volume_ml: float
) -> None:
    """The solubility run's first solvent addition."""
    ctx.proxy(device).dose_initial_solvent(volume_ml)


@step("stir_solution")
def _stir_solution(ctx: WorkflowContext, device: str, temperature: float) -> None:
    """Stir on the hotplate at *temperature*."""
    ctx.proxy(device).stir_solution(temperature)


@step("shake")
def _shake(ctx: WorkflowContext, device: str, speed_rpm: float) -> None:
    """Agitate on the thermoshaker at *speed_rpm*."""
    ctx.proxy(device).shake(speed_rpm)


@step("cap_vial")
def _cap_vial(ctx: WorkflowContext, vial: str) -> None:
    """Stopper a vial."""
    ctx.proxy(vial).cap_vial()


@step("decap_vial")
def _decap_vial(ctx: WorkflowContext, vial: str) -> None:
    """Unstopper a vial."""
    ctx.proxy(vial).decap_vial()


@step("decap")
def _decap(ctx: WorkflowContext, device: str) -> None:
    """Run the decapper station on whatever vial sits in its slot."""
    ctx.proxy(device).decap()


# ---------------------------------------------------------------------------
# Composite steps — the Fig. 5 script-level helpers
# ---------------------------------------------------------------------------


@step("pick_up_object")
def _pick_up_object(
    ctx: WorkflowContext, robot: str, safe_location: str, pickup_location: str
) -> None:
    """Fig. 5 ``*_pick_up_object``: stage, open, descend, close, retreat
    (five individually traced commands)."""
    proxy = ctx.proxy(robot)
    proxy.move_to_location(safe_location)
    proxy.open_gripper()
    proxy.move_to_location(pickup_location)
    proxy.close_gripper()
    proxy.move_to_location(safe_location)


@step("place_object")
def _place_object(
    ctx: WorkflowContext, robot: str, safe_location: str, place_location: str
) -> None:
    """Fig. 5 ``*_place_object``: stage, descend, open, retreat."""
    proxy = ctx.proxy(robot)
    proxy.move_to_location(safe_location)
    proxy.move_to_location(place_location)
    proxy.open_gripper()
    proxy.move_to_location(safe_location)


@step("place_into_dosing")
def _place_into_dosing(
    ctx: WorkflowContext,
    robot: str,
    approach: str = "dosing_approach_viperx",
    safe: str = "dosing_safe_viperx",
    slot: str = "dosing_pickup_viperx",
) -> None:
    """Approach, enter, set the vial down, retreat, leave (Fig. 5 line
    16's six-command decomposition)."""
    proxy = ctx.proxy(robot)
    proxy.move_to_location(approach)
    proxy.move_to_location(safe)
    proxy.move_to_location(slot)
    proxy.open_gripper()
    proxy.move_to_location(safe)
    proxy.move_to_location(approach)


@step("pick_from_dosing")
def _pick_from_dosing(
    ctx: WorkflowContext,
    robot: str,
    approach: str = "dosing_approach_viperx",
    safe: str = "dosing_safe_viperx",
    slot: str = "dosing_pickup_viperx",
) -> None:
    """Approach, enter, grasp the vial, retreat, leave (Fig. 5 line 25)."""
    proxy = ctx.proxy(robot)
    proxy.move_to_location(approach)
    proxy.move_to_location(safe)
    proxy.move_to_location(slot)
    proxy.close_gripper()
    proxy.move_to_location(safe)
    proxy.move_to_location(approach)
