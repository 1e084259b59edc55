"""The RABIT rulebase: Table III, Table IV, and Table II preconditions.

Every rule is a checkable precondition attached to one or more action
labels.  A central design convention, taken from the paper's evaluation:

    **alarm only on provable violations.**

RABIT tracks some variables (who holds what, which vial is where) purely
through command postconditions; when that belief is missing — for example
on the testbed, where pick/place decompose into untracked gripper-level
commands — a rule that would need the missing information *passes* rather
than alarms.  This is why the paper reports **zero false positives**
throughout testing, and simultaneously why Bug C (a vial that was never
picked up) is invisible: there is no observation that contradicts any
tracked variable.

Rule identifiers:

- ``G1`` .. ``G11`` — the general rules of Table III, descriptions verbatim.
- ``C1`` .. ``C4``  — the Hein Lab's customized rules of Table IV.
- ``T2-place``      — Table II's place-object precondition
  (``robotArmHolding[robot] = 1``), which applies to the modeled
  ``place_object`` wrapper command but *not* to raw ``open_gripper``.

Geometric checks (rule G3) honour two revision flags from
:class:`~repro.core.monitor.RabitOptions`:

- ``account_held_objects`` — the post-Bug-D modification: the check also
  sweeps the held vial's extent ("a robot arm's dimensions may change if
  it is holding an object");
- ``enforce_workspace_bounds`` — the post-campaign modification adding
  per-frame workspace limits (walls / deck edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import ActionCall, ActionLabel
from repro.core.model import RabitLabModel
from repro.core.state import LabState


class RuleScope(Enum):
    """Where a rule comes from."""

    GENERAL = "general"  # Table III — applies to most self-driving labs
    CUSTOM = "custom"  # Table IV — specific to one lab
    ACTION = "action"  # Table II action preconditions


@dataclass
class CheckContext:
    """Everything a rule check can consult."""

    state: LabState
    call: ActionCall
    model: RabitLabModel
    #: Modified-RABIT flag: model held-object geometry (post Bug D).
    account_held_objects: bool = False
    #: Modified-RABIT flag: enforce per-frame workspace bounds.
    enforce_workspace_bounds: bool = False
    #: Modified-RABIT flag: enforce container capacities (Rule 8's
    #: "empty or partially filled receiving container").
    enforce_capacity: bool = False


CheckFn = Callable[[CheckContext], Optional[str]]


@dataclass(frozen=True)
class Rule:
    """One rule: identifier, provenance, paper text, and its check."""

    rule_id: str
    scope: RuleScope
    description: str
    labels: FrozenSet[ActionLabel]
    check: CheckFn

    def applies_to(self, label: ActionLabel) -> bool:
        """Whether this rule constrains actions with *label*."""
        return label in self.labels


class RuleBase:
    """An ordered collection of rules, queried per action label.

    :meth:`check_action` is the *interpreted* reference path: it walks
    the full rule list and asks each rule whether it applies to the
    command's label before invoking its check.  :meth:`compiled`
    memoizes a :class:`CompiledRuleBase` — per-label dispatch tables
    built once at registration time — and recompiles whenever
    :attr:`revision` moves, exactly like the geometry engines
    invalidate on the model's geometry revision.
    """

    def __init__(self, rules: Sequence[Rule] = ()) -> None:
        self._rules: List[Rule] = list(rules)
        #: Bumped on every mutation; the rule-verdict cache keys on it so
        #: adding a rule at run time invalidates all cached verdicts, and
        #: the compiled dispatch tables recompile against it.
        self.revision: int = 0
        self._compiled: Optional["CompiledRuleBase"] = None
        #: Rules *visited* per check_action call (the applies_to scan) —
        #: the cost the compiled dispatch removes; cold-path benchmarks
        #: compare this counter across the two paths.
        self.rules_considered: int = 0
        #: Rule checks actually invoked (applicable rules walked until
        #: the first violation) — identical across both paths.
        self.checks_invoked: int = 0

    def add(self, rule: Rule) -> None:
        """Register an additional rule (lab-specific customization)."""
        if any(r.rule_id == rule.rule_id for r in self._rules):
            raise ValueError(f"duplicate rule id {rule.rule_id!r}")
        self._rules.append(rule)
        self.revision += 1

    def rules(self, scope: Optional[RuleScope] = None) -> Tuple[Rule, ...]:
        """All rules, optionally filtered by scope."""
        if scope is None:
            return tuple(self._rules)
        return tuple(r for r in self._rules if r.scope is scope)

    def get(self, rule_id: str) -> Rule:
        """Look up a rule by identifier."""
        for rule in self._rules:
            if rule.rule_id == rule_id:
                return rule
        raise KeyError(f"unknown rule {rule_id!r}")

    def check_action(self, ctx: CheckContext) -> Optional[Tuple[Rule, str]]:
        """First violated rule for this action, with its reason."""
        for rule in self._rules:
            self.rules_considered += 1
            if not rule.applies_to(ctx.call.label):
                continue
            self.checks_invoked += 1
            reason = rule.check(ctx)
            if reason is not None:
                return rule, reason
        return None

    def compile(self) -> "CompiledRuleBase":
        """Build a fresh compiled form of the current rule list.

        The snapshot is pinned to the current :attr:`revision`; it does
        *not* follow later :meth:`add` calls.  Use :meth:`compiled` for
        the self-invalidating accessor the monitor consults.
        """
        return CompiledRuleBase(self)

    def compiled(self) -> "CompiledRuleBase":
        """The memoized compiled form, recompiled on revision change."""
        engine = self._compiled
        if engine is None or engine.revision != self.revision:
            engine = self._compiled = CompiledRuleBase(self)
        return engine


class CompiledRuleBase:
    """Per-label decision lists compiled from a :class:`RuleBase`.

    Compilation resolves, once, the question the interpreted scan
    re-answers on every command — *which rules constrain this action
    label?* — into a ``label -> ((rule, check), ...)`` dispatch table.
    ``check_action`` then walks only the (typically 1-6 entry) decision
    list for the command's label instead of consulting ``applies_to``
    on all ~16 registered rules.  Registration order is preserved
    within each list, so the first-violation verdict (rule id *and*
    reason string) is byte-identical to the interpreted scan — the
    differential suite pins this across the Monte Carlo mutant corpus
    and the golden traces.
    """

    __slots__ = ("revision", "size", "_dispatch", "rules_considered", "checks_invoked")

    def __init__(self, rulebase: RuleBase) -> None:
        #: Revision of the source rulebase this table was compiled from.
        self.revision = rulebase.revision
        #: Number of rules compiled in.
        self.size = len(rulebase.rules())
        dispatch: Dict[ActionLabel, List[Tuple[Rule, CheckFn]]] = {}
        for rule in rulebase.rules():
            for label in rule.labels:
                dispatch.setdefault(label, []).append((rule, rule.check))
        self._dispatch: Dict[ActionLabel, Tuple[Tuple[Rule, CheckFn], ...]] = {
            label: tuple(entries) for label, entries in dispatch.items()
        }
        #: Same counters as the interpreted path; here every decision-list
        #: entry visited is also a check invocation candidate.
        self.rules_considered: int = 0
        self.checks_invoked: int = 0

    def decision_list(self, label: ActionLabel) -> Tuple[Tuple[Rule, CheckFn], ...]:
        """The precomputed ``(rule, check)`` entries for *label*, in
        registration (first-violation) order."""
        return self._dispatch.get(label, ())

    def labels(self) -> FrozenSet[ActionLabel]:
        """Every action label with a non-empty decision list."""
        return frozenset(self._dispatch)

    def check_action(self, ctx: CheckContext) -> Optional[Tuple[Rule, str]]:
        """First violated rule for this action — same contract (and same
        verdict) as :meth:`RuleBase.check_action`, minus the scan."""
        entries = self._dispatch.get(ctx.call.label, ())
        for rule, check in entries:
            self.rules_considered += 1
            self.checks_invoked += 1
            reason = check(ctx)
            if reason is not None:
                return rule, reason
        return None


# ---------------------------------------------------------------------------
# Helpers shared by rule checks
# ---------------------------------------------------------------------------

_MOVE_LABELS = frozenset(
    {
        ActionLabel.MOVE_ROBOT,
        ActionLabel.MOVE_ROBOT_INSIDE,
        ActionLabel.PICK_OBJECT,
        ActionLabel.PLACE_OBJECT,
        ActionLabel.OPEN_GRIPPER,  # occupancy sub-check only (no target)
    }
)

_DOSE_LABELS = frozenset({ActionLabel.START_DOSING, ActionLabel.DOSE_LIQUID})

_ENTRY_LABELS = frozenset(
    {ActionLabel.MOVE_ROBOT_INSIDE, ActionLabel.PICK_OBJECT, ActionLabel.PLACE_OBJECT}
)

_PLACE_LABELS = frozenset({ActionLabel.PLACE_OBJECT, ActionLabel.OPEN_GRIPPER})
_PICK_LABELS = frozenset({ActionLabel.PICK_OBJECT, ActionLabel.CLOSE_GRIPPER})


def _doored_target_device(ctx: CheckContext) -> Optional[str]:
    """Door-status key guarding the target interior location, if any.

    Single-door devices use the device name itself; multi-door devices
    (§V-C) use the compound ``"<device>:<door>"`` key named by the
    location's ``via_door``."""
    owner = ctx.model.interior_owner(ctx.call.location)
    if owner is None or not ctx.model.has_device(owner):
        return None
    device = ctx.model.device(owner)
    if not device.has_door:
        return None
    if ctx.call.location is not None:
        via = ctx.model.location(ctx.call.location).via_door
        if via is not None:
            return f"{owner}:{via}"
    return owner


def _door_base(device_key: str) -> str:
    """The device name part of a (possibly compound) door-status key."""
    return device_key.split(":", 1)[0]


def _load_vial(ctx: CheckContext, device: str) -> Optional[str]:
    """The vial RABIT believes sits at *device*'s load/dispense location."""
    load = ctx.model.load_location(device)
    if load is None:
        return None
    return ctx.state.vial_at(load)


def _held_vial(ctx: CheckContext) -> Optional[str]:
    """The vial RABIT believes the acting robot holds."""
    if ctx.call.robot is None:
        return None
    return ctx.state.get("robot_holding", ctx.call.robot)


def _placing_into(ctx: CheckContext) -> Optional[str]:
    """Device the robot is believed to be placing a held vial into."""
    if ctx.call.label not in _PLACE_LABELS:
        return None
    if _held_vial(ctx) is None:
        return None
    return ctx.model.interior_owner(ctx.call.location)


# ---------------------------------------------------------------------------
# General rules (Table III)
# ---------------------------------------------------------------------------


def _g1_door_open_before_entry(ctx: CheckContext) -> Optional[str]:
    door_key = _doored_target_device(ctx)
    if door_key is None:
        return None
    if ctx.state.get("door_status", door_key) == "open":
        return None
    return f"robot {ctx.call.robot!r} would enter {door_key!r} whose door is closed"


def _g2_no_close_on_robot(ctx: CheckContext) -> Optional[str]:
    base = _door_base(ctx.call.device)
    inside = ctx.state.keys_where("robot_inside", base)
    if ":" in ctx.call.device:
        # Multi-door device: only the door a robot entered through is
        # blocked — the point of multiple doors is simultaneous access.
        # An unknown entry door is treated conservatively (blocked).
        door_name = ctx.call.device.split(":", 1)[1]
        inside = [
            r
            for r in inside
            if ctx.state.get("robot_entry_door", r) in (door_name, None)
        ]
    if not inside:
        return None
    return (
        f"door of {ctx.call.device!r} cannot close: robot arm(s) "
        f"{', '.join(sorted(inside))} still inside"
    )


def _g3_target_collision(ctx: CheckContext) -> Optional[str]:
    """Rule 3's operational form without the Extended Simulator: "only the
    target location is checked for potential collisions" (§II-B)."""
    call = ctx.call
    if call.robot is None:
        return None

    # (a) Occupancy by a tracked object: placing a vial onto a slot that
    #     RABIT believes already holds one (the §I footnote scenario — a
    #     new vial dropped onto the uncollected previous one).  Plain
    #     moves are exempt: a legitimate pick stages the gripper at the
    #     occupied slot before closing.
    if call.location is not None and call.label in (
        ActionLabel.PLACE_OBJECT,
        ActionLabel.OPEN_GRIPPER,
    ):
        if call.label is ActionLabel.PLACE_OBJECT or _held_vial(ctx) is not None:
            occupant = ctx.state.vial_at(call.location)
            if occupant is not None:
                return (
                    f"target location {call.location!r} is already occupied by "
                    f"{occupant!r}"
                )

    # (b) Geometric target check against configured cuboids, in the acting
    #     robot's own coordinate frame.
    if call.target is None:
        return None
    robot_model = ctx.model.device(call.robot)
    frame = robot_model.frame or call.robot
    target = np.asarray(call.target, dtype=np.float64)

    exclude = ctx.model.collision_exclusions(call, ctx.state)
    obstacles = ctx.model.obstacles_for_frame(frame, exclude=exclude)
    surfaces = ctx.model.surfaces_for_frame(frame, exclude=exclude)

    probes: List[Tuple[str, np.ndarray, bool]] = [
        ("target point", target, False),
        (
            "gripper tip",
            target - np.array([0.0, 0.0, robot_model.gripper_clearance]),
            True,
        ),
    ]
    if ctx.account_held_objects and _held_vial(ctx) is not None:
        probes.append(
            (
                f"held vial (bottom {robot_model.held_drop * 100:.0f} cm below gripper)",
                target - np.array([0.0, 0.0, robot_model.held_drop]),
                True,
            )
        )

    for label, point, include_surfaces in probes:
        boxes = list(obstacles) + (list(surfaces) if include_surfaces else [])
        for box in boxes:
            if box.contains(point):
                return (
                    f"{label} of {call.robot!r} at "
                    f"({point[0]:.3f}, {point[1]:.3f}, {point[2]:.3f}) would be "
                    f"inside {box.name!r}"
                )

    # (c) Software walls (space multiplexing) and workspace bounds
    #     (modified RABIT) in this robot's frame.
    for wall in ctx.model.walls.get(frame, []):
        if not wall.allows(target):
            return (
                f"target of {call.robot!r} crosses software wall {wall.name!r}"
            )
    if ctx.enforce_workspace_bounds:
        bounds = getattr(ctx.model, "workspace_bounds", {}).get(frame)
        if bounds is not None and not bounds.contains(target):
            return (
                f"target of {call.robot!r} lies outside the configured "
                f"workspace {bounds.name!r}"
            )
    return None


def _g4_pick_requires_free_gripper(ctx: CheckContext) -> Optional[str]:
    held = _held_vial(ctx)
    if held is None:
        return None
    return f"robot {ctx.call.robot!r} is already holding {held!r}"


def _g5_container_inside(ctx: CheckContext) -> Optional[str]:
    device_model = ctx.model.device(ctx.call.device)
    if not device_model.requires_container:
        return None
    if _load_vial(ctx, ctx.call.device) is not None:
        return None
    # Provable only when this lab's container tracking is reliable.
    if not getattr(ctx.model, "reliable_container_tracking", False):
        return None
    return f"no container is inside {ctx.call.device!r}"


def _g6_container_not_empty(ctx: CheckContext) -> Optional[str]:
    device_model = ctx.model.device(ctx.call.device)
    if not device_model.requires_container:
        return None
    vial = _load_vial(ctx, ctx.call.device)
    if vial is None:
        return None  # G5's concern, not G6's
    solid = float(ctx.state.get("container_solid", vial, 0.0))
    liquid = float(ctx.state.get("container_liquid", vial, 0.0))
    if solid > 0.0 or liquid > 0.0:
        return None
    if not getattr(ctx.model, "reliable_container_tracking", False):
        return None
    return f"container {vial!r} inside {ctx.call.device!r} is empty"


def _g7_no_stopper_during_transfer(ctx: CheckContext) -> Optional[str]:
    vial = _load_vial(ctx, ctx.call.device)
    if vial is None:
        return None
    if ctx.state.get("container_stopper", vial, "off") != "on":
        return None
    return (
        f"cannot transfer into {vial!r}: it has a stopper on "
        f"(receiving container must be open)"
    )


def _g8_receiving_capacity(ctx: CheckContext) -> Optional[str]:
    if not ctx.enforce_capacity:
        return None
    vial = _load_vial(ctx, ctx.call.device)
    if vial is None or ctx.call.quantity is None:
        return None
    if ctx.call.label is ActionLabel.START_DOSING:
        capacity = ctx.model.device(vial).capacity_solid_mg if ctx.model.has_device(vial) else None
        believed = float(ctx.state.get("container_solid", vial, 0.0))
        unit = "mg"
    else:
        capacity = ctx.model.device(vial).capacity_liquid_ml if ctx.model.has_device(vial) else None
        believed = float(ctx.state.get("container_liquid", vial, 0.0))
        unit = "mL"
    if capacity is None:
        return None
    if believed + ctx.call.quantity <= capacity + 1e-9:
        return None
    return (
        f"dosing {ctx.call.quantity:g} {unit} into {vial!r} would exceed its "
        f"capacity ({believed:g} + {ctx.call.quantity:g} > {capacity:g} {unit})"
    )


def _g9_door_closed_to_run(ctx: CheckContext) -> Optional[str]:
    device_model = ctx.model.device(ctx.call.device)
    if not device_model.has_door:
        return None
    door_keys = (
        [f"{ctx.call.device}:{name}" for name in device_model.door_names]
        if device_model.door_names
        else [ctx.call.device]
    )
    for key in door_keys:
        if ctx.state.get("door_status", key) != "closed":
            return (
                f"{ctx.call.device!r} cannot start: door {key!r} must be "
                f"closed while dosing/acting"
            )
    return None


def _g10_door_stays_closed_while_running(ctx: CheckContext) -> Optional[str]:
    if not ctx.state.get("device_active", _door_base(ctx.call.device), False):
        return None
    return f"door of {ctx.call.device!r} cannot open while the device is running"


def _g11_threshold(ctx: CheckContext) -> Optional[str]:
    device_model = ctx.model.device(ctx.call.device)
    if device_model.threshold is None or ctx.call.value is None:
        return None
    if ctx.call.value <= device_model.threshold:
        return None
    return (
        f"action value {ctx.call.value:g} for {ctx.call.device!r} exceeds its "
        f"predefined threshold {device_model.threshold:g}"
    )


# ---------------------------------------------------------------------------
# Customized rules (Table IV — Hein Lab)
# ---------------------------------------------------------------------------


def _c1_solid_before_liquid(ctx: CheckContext) -> Optional[str]:
    vial = _load_vial(ctx, ctx.call.device)
    if vial is None:
        return None
    solid = float(ctx.state.get("container_solid", vial, 0.0))
    if solid > 0.0:
        return None
    return f"cannot add liquid to {vial!r}: the container has no solid yet"


def _c2_both_phases_for_centrifuge(ctx: CheckContext) -> Optional[str]:
    device = _placing_into(ctx)
    if device is None or not _is_centrifuge(ctx.model, device):
        return None
    vial = _held_vial(ctx)
    assert vial is not None
    solid = float(ctx.state.get("container_solid", vial, 0.0))
    liquid = float(ctx.state.get("container_liquid", vial, 0.0))
    if solid > 0.0 and liquid > 0.0:
        return None
    return (
        f"container {vial!r} must hold both a solid and a liquid before it "
        f"goes into {device!r}"
    )


def _c3_red_dot_north(ctx: CheckContext) -> Optional[str]:
    device = _placing_into(ctx)
    if device is None or not _is_centrifuge(ctx.model, device):
        return None
    dot = ctx.state.get("red_dot", device, "N")
    if dot == "N":
        return None
    return f"red dot on {device!r} faces {dot}, not North"


def _c4_stopper_for_centrifuge(ctx: CheckContext) -> Optional[str]:
    device = _placing_into(ctx)
    if device is None or not _is_centrifuge(ctx.model, device):
        return None
    vial = _held_vial(ctx)
    assert vial is not None
    if ctx.state.get("container_stopper", vial, "off") == "on":
        return None
    return f"container {vial!r} must have its stopper on before centrifuging"


def _is_centrifuge(model: RabitLabModel, device: str) -> bool:
    return model.has_device(device) and model.device(device).class_name == "Centrifuge"


# ---------------------------------------------------------------------------
# Table II action preconditions
# ---------------------------------------------------------------------------


def _t2_place_requires_holding(ctx: CheckContext) -> Optional[str]:
    if _held_vial(ctx) is not None:
        return None
    return f"robot {ctx.call.robot!r} is not holding anything to place"


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

GENERAL_RULES: Tuple[Rule, ...] = (
    Rule(
        "G1",
        RuleScope.GENERAL,
        "Robot arm cannot move into a device whose door is closed",
        _ENTRY_LABELS,
        _g1_door_open_before_entry,
    ),
    Rule(
        "G2",
        RuleScope.GENERAL,
        "Device door cannot be closed when the robot is inside the device",
        frozenset({ActionLabel.CLOSE_DOOR}),
        _g2_no_close_on_robot,
    ),
    Rule(
        "G3",
        RuleScope.GENERAL,
        "Robot arm can move to any location not occupied by any object",
        _MOVE_LABELS,
        _g3_target_collision,
    ),
    Rule(
        "G4",
        RuleScope.GENERAL,
        "Robot arm can pick up an object when it isn't holding something",
        _PICK_LABELS,
        _g4_pick_requires_free_gripper,
    ),
    Rule(
        "G5",
        RuleScope.GENERAL,
        "Action device can perform actions when a container is inside it",
        frozenset({ActionLabel.START_ACTION}),
        _g5_container_inside,
    ),
    Rule(
        "G6",
        RuleScope.GENERAL,
        "Action device can perform actions when a container is not empty",
        frozenset({ActionLabel.START_ACTION}),
        _g6_container_not_empty,
    ),
    Rule(
        "G7",
        RuleScope.GENERAL,
        "A substance can be transferred from a delivering container to a "
        "receiving container when neither has a stopper on it",
        _DOSE_LABELS,
        _g7_no_stopper_during_transfer,
    ),
    Rule(
        "G8",
        RuleScope.GENERAL,
        "A substance can be transferred from a filled delivering container "
        "to an empty or partially filled receiving container",
        _DOSE_LABELS,
        _g8_receiving_capacity,
    ),
    Rule(
        "G9",
        RuleScope.GENERAL,
        "Dosing systems or action devices with doors should start dosing or "
        "performing an action, respectively, only when their doors are closed",
        frozenset({ActionLabel.START_DOSING, ActionLabel.START_ACTION}),
        _g9_door_closed_to_run,
    ),
    Rule(
        "G10",
        RuleScope.GENERAL,
        "The door of the dosing systems or action devices with doors should "
        "be closed when they are running",
        frozenset({ActionLabel.OPEN_DOOR}),
        _g10_door_stays_closed_while_running,
    ),
    Rule(
        "G11",
        RuleScope.GENERAL,
        "The action value, such as temperature or stirring speed, for a "
        "given action device should not exceed its predefined threshold",
        frozenset({ActionLabel.START_ACTION, ActionLabel.SET_ACTION_VALUE}),
        _g11_threshold,
    ),
)

HEIN_CUSTOM_RULES: Tuple[Rule, ...] = (
    Rule(
        "C1",
        RuleScope.CUSTOM,
        "Add liquid to a container only if the container already has solid",
        frozenset({ActionLabel.DOSE_LIQUID}),
        _c1_solid_before_liquid,
    ),
    Rule(
        "C2",
        RuleScope.CUSTOM,
        "Place the container in the centrifuge only if the container "
        "contains both a solid and a liquid",
        _PLACE_LABELS,
        _c2_both_phases_for_centrifuge,
    ),
    Rule(
        "C3",
        RuleScope.CUSTOM,
        "Place the container in the centrifuge only if the red dot on "
        "centrifuge faces North",
        _PLACE_LABELS,
        _c3_red_dot_north,
    ),
    Rule(
        "C4",
        RuleScope.CUSTOM,
        "Place the container in the centrifuge only if the container has a "
        "stopper on it",
        _PLACE_LABELS,
        _c4_stopper_for_centrifuge,
    ),
)

ACTION_PRECONDITIONS: Tuple[Rule, ...] = (
    Rule(
        "T2-place",
        RuleScope.ACTION,
        "Using a robot arm to place an object requires "
        "robotArmHolding[robot] = 1 (Table II)",
        frozenset({ActionLabel.PLACE_OBJECT}),
        _t2_place_requires_holding,
    ),
)


def build_default_rulebase(
    custom_rule_ids: Sequence[str] = (), exclude: Sequence[str] = ()
) -> RuleBase:
    """Assemble the rulebase: all general rules, Table II preconditions,
    and whichever Table IV custom rules the configuration enables.

    *exclude* drops rules by id — the knob the rule-knockout ablation
    benchmark turns to show which detections each rule carries."""
    enabled_custom = [
        rule for rule in HEIN_CUSTOM_RULES if rule.rule_id in set(custom_rule_ids)
    ]
    excluded = set(exclude)
    return RuleBase(
        [
            rule
            for rule in (*GENERAL_RULES, *ACTION_PRECONDITIONS, *enabled_custom)
            if rule.rule_id not in excluded
        ]
    )
