"""The 16-bug campaign (§IV) and its runner.

Sixteen unsafe single-edit program changes over the safe testbed
workflows, labeled with the paper's Table V severity bands.  The campaign
reproduces the paper's detection progression:

- **initial** RABIT (bare-arm geometry, no capacity/workspace modeling):
  detects 8/16 (50 %);
- **modified** RABIT (held-object geometry, capacity, workspace bounds —
  the §IV fixes): detects 12/16 (75 %), which is the configuration
  Table V tabulates;
- **modified + Extended Simulator**: detects 13/16 (81 %) — the extra
  scenario is the silently-skipped-waypoint collision of footnote 2.

The three never-detected bugs are the paper's: Bug C and its
reordered-gripper variant (no gripper pressure sensor) and Bug B (no
common frame of reference for arm-arm collisions).

Where the paper is not explicit about *which* four bugs only the modified
revision catches, this reproduction assigns them to the modification
features the paper does describe (held-object geometry for Bug D,
capacity enforcement, workspace bounds) — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.interceptor import CommandRecord
from repro.core.monitor import RabitOptions
from repro.devices.world import DamageEvent, DamageSeverity
from repro.faults.mutation import (
    DeleteLine,
    InsertAfter,
    MutateLocation,
    Mutation,
    ReplaceLine,
    SwapLines,
    apply_mutations,
)
from repro.workflow import WorkflowNode, build_context, build_preset, execute_dag

#: The three RABIT configurations the paper evaluates, in order.
RABIT_CONFIGS: Dict[str, Callable[[], RabitOptions]] = {
    "initial": RabitOptions.initial,
    "modified": RabitOptions.modified,
    "modified_es": partial(RabitOptions.modified, use_extended_simulator=True),
}


@dataclass(frozen=True)
class InjectedBug:
    """One unsafe program change."""

    bug_id: str
    title: str
    severity: DamageSeverity
    #: The §IV unsafe-behaviour category (1-4).
    category: int
    #: The safe workflow preset the edit applies to.
    workflow: str  # "testbed_fig5" | "centrifuge"
    #: The edits, applied to the preset's DAG and the deck.
    mutations: Tuple[Mutation, ...]
    #: Expected detection per configuration (the paper's outcomes).
    expected: Dict[str, bool]
    notes: str = ""


@dataclass
class BugOutcome:
    """Result of running one bug under one configuration."""

    bug: InjectedBug
    config: str
    detected: bool
    alert: Optional[str]
    device_error: Optional[str]
    damage: Tuple[DamageEvent, ...]
    completed: bool

    @property
    def matches_paper(self) -> bool:
        """Whether detection matched the paper's reported outcome."""
        return self.detected == self.bug.expected[self.config]

    def as_dict(self) -> dict:
        """JSON-safe dict of every observable field."""
        return {
            "bug_id": self.bug.bug_id,
            "config": self.config,
            "detected": self.detected,
            "alert": self.alert,
            "device_error": self.device_error,
            "damage": [str(event) for event in self.damage],
            "completed": self.completed,
            "matches_paper": self.matches_paper,
        }


@dataclass
class CampaignResult:
    """All outcomes of one configuration sweep."""

    outcomes: List[BugOutcome] = field(default_factory=list)

    def detected_count(self, config: str) -> int:
        """Bugs detected under *config*."""
        return sum(1 for o in self.outcomes if o.config == config and o.detected)

    def detection_rate(self, config: str) -> float:
        """Fraction of campaign bugs detected under *config*."""
        total = sum(1 for o in self.outcomes if o.config == config)
        return self.detected_count(config) / total if total else 0.0

    def by_severity(self, config: str) -> Dict[DamageSeverity, Tuple[int, int]]:
        """Table V rows: severity -> (total, detected) under *config*."""
        rows: Dict[DamageSeverity, Tuple[int, int]] = {}
        for outcome in self.outcomes:
            if outcome.config != config:
                continue
            total, detected = rows.get(outcome.bug.severity, (0, 0))
            rows[outcome.bug.severity] = (
                total + 1,
                detected + (1 if outcome.detected else 0),
            )
        return rows

    def mismatches(self) -> List[BugOutcome]:
        """Outcomes that deviate from the paper's reported detection."""
        return [o for o in self.outcomes if not o.matches_paper]

    def canonical_bytes(self) -> bytes:
        """Canonical JSON serialization of every outcome field — the
        differential harness's sequential-vs-sharded equality witness.
        Uses the shared :mod:`repro.trace.canon` serialization (sorted
        keys, compact separators, ASCII, NaN rejected)."""
        from repro.trace.canon import canonical_bytes

        return canonical_bytes([o.as_dict() for o in self.outcomes])


# ---------------------------------------------------------------------------
# The sixteen bugs
# ---------------------------------------------------------------------------


def _viperx(node_id: str, step: str, **params: object) -> WorkflowNode:
    """One raw ViperX statement (an inserted or replacement line)."""
    return WorkflowNode(node_id, step, {"robot": "viperx", **params})


CAMPAIGN_BUGS: Tuple[InjectedBug, ...] = (
    InjectedBug(
        "L1",
        "Dose more solid than the vial can hold",
        DamageSeverity.LOW,
        4,
        "testbed_fig5",
        (
            ReplaceLine(
                "run_dosing",
                (
                    WorkflowNode(
                        "run_dosing_overfill",
                        "run_action",
                        {"device": "dosing_device", "delay": 3.0, "quantity": 15.0},
                    ),
                ),
            ),
        ),
        {"initial": False, "modified": True, "modified_es": True},
        "Capacity (Rule 8) enforcement was added in the modified revision.",
    ),
    InjectedBug(
        "L2",
        "Bug C: pick-up call omitted; experiment continues without a vial",
        DamageSeverity.LOW,
        3,
        "testbed_fig5",
        (DeleteLine("pick_grid"),),
        {"initial": False, "modified": False, "modified_es": False},
        "No gripper pressure sensor: never detectable.",
    ),
    InjectedBug(
        "L3",
        "open_gripper()/close_gripper() reordered inside the pick helper",
        DamageSeverity.LOW,
        3,
        "testbed_fig5",
        (
            # The pick helper with open_gripper()/close_gripper() reordered:
            # the jaws close at the staging height and open at the vial.
            ReplaceLine(
                "pick_grid",
                (
                    _viperx("stage_grid", "move", location="grid_nw_viperx_safe"),
                    _viperx("close_jaws_early", "close_gripper"),
                    _viperx("descend_grid", "move", location="grid_nw_viperx"),
                    _viperx("open_jaws_at_vial", "open_gripper"),
                    _viperx("retreat_grid", "move", location="grid_nw_viperx_safe"),
                ),
            ),
        ),
        {"initial": False, "modified": False, "modified_es": False},
        "Same sensing gap as Bug C.",
    ),
    InjectedBug(
        "ML1",
        "Bug D: dosing pickup z lowered 0.10 -> 0.08 while holding a vial",
        DamageSeverity.MEDIUM_LOW,
        4,
        "testbed_fig5",
        (MutateLocation("dosing_pickup_viperx", "viperx", (0.15, 0.45, 0.08)),),
        {"initial": False, "modified": True, "modified_es": True},
        "The held-object-dimensions fix.",
    ),
    InjectedBug(
        "MH1",
        "Bare arm commanded into the mounting platform",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "testbed_fig5",
        (
            InsertAfter(
                "home_1",
                (_viperx("move_into_platform", "move", location=[0.44, 0.0, 0.01]),),
            ),
        ),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "MH2",
        "Held vial carried low across the thermoshaker (vial, not arm, collides)",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "testbed_fig5",
        (
            InsertAfter(
                "pick_grid",
                (_viperx("carry_over_shaker", "move", location=[0.37, -0.35, 0.16]),),
            ),
        ),
        {"initial": False, "modified": True, "modified_es": True},
        "The testbed scenario the simulator cannot cover (§III).",
    ),
    InjectedBug(
        "MH3",
        "Unreachable waypoint silently skipped; the direct move then collides",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "testbed_fig5",
        (
            InsertAfter(
                "place_grid",
                (
                    # Unreachable: the arm silently skips this waypoint.
                    _viperx("waypoint_b_prime", "move", location=[0.62, -0.38, 0.35]),
                    _viperx("move_c_direct", "move", location=[0.37, -0.46, 0.10]),
                ),
            ),
        ),
        {"initial": False, "modified": False, "modified_es": True},
        "Footnote 2: only the Extended Simulator sweeps the actual trajectory.",
    ),
    InjectedBug(
        "MH4",
        "Bug B: Ned2 moved next to the grid while ViperX is stationed there",
        DamageSeverity.MEDIUM_HIGH,
        2,
        "testbed_fig5",
        (
            InsertAfter(
                "place_grid",
                (
                    WorkflowNode(
                        "ned2_random_move",
                        "move_pose",
                        {"robot": "ned2", "target": [0.365, -0.010, 0.192]},
                    ),
                ),
            ),
        ),
        {"initial": False, "modified": False, "modified_es": False},
        "No common frame of reference; prevented only by multiplexing.",
    ),
    InjectedBug(
        "MH5",
        "Arm commanded through the wall beside the deck",
        DamageSeverity.MEDIUM_HIGH,
        4,
        "testbed_fig5",
        (
            InsertAfter(
                "home_1",
                (_viperx("move_into_wall", "move", location=[0.0, 0.60, 0.20]),),
            ),
        ),
        {"initial": False, "modified": True, "modified_es": True},
        "Workspace bounds were added in the modified revision.",
    ),
    InjectedBug(
        "MH6",
        "Vial placed onto a grid slot that already holds another vial",
        DamageSeverity.MEDIUM_HIGH,
        1,
        "testbed_fig5",
        (
            # The place helper aimed at the ned2 grid slot, already occupied.
            ReplaceLine(
                "place_grid",
                (
                    _viperx(
                        "place_grid_wrong_slot",
                        "place_object",
                        safe_location="grid_ne_ned2_safe",
                        place_location="grid_ne_ned2",
                    ),
                ),
            ),
        ),
        {"initial": True, "modified": True, "modified_es": True},
        "The §I footnote scenario (uncollected vial).",
    ),
    InjectedBug(
        "H1",
        "Bug A: door not re-opened; arm drives into the closed dosing device",
        DamageSeverity.HIGH,
        1,
        "testbed_fig5",
        (DeleteLine("open_door_after_dose"),),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H2",
        "Door closed while the arm is still inside the dosing device",
        DamageSeverity.HIGH,
        1,
        "testbed_fig5",
        (
            # A two-line edit (the paper's bugs span "one or two lines"):
            # the place helper forgets to retreat AND the go-home call is
            # dropped, so the arm is still inside the device when the
            # door-close command runs.
            ReplaceLine(
                "place_dosing",
                (
                    _viperx("approach_dosing", "move", location="dosing_approach_viperx"),
                    _viperx("enter_dosing", "move", location="dosing_safe_viperx"),
                    _viperx("descend_dosing", "move", location="dosing_pickup_viperx"),
                    _viperx("release_vial", "open_gripper"),
                ),
            ),
            DeleteLine("home_2"),
        ),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H3",
        "Dosing started with the device door open",
        DamageSeverity.HIGH,
        1,
        "testbed_fig5",
        (DeleteLine("close_door_before_dose"),),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H4",
        "Door opened while the dosing device is still running",
        DamageSeverity.HIGH,
        1,
        "testbed_fig5",
        (SwapLines("stop_dosing", "open_door_after_dose"),),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H5",
        "Centrifuge commanded beyond its speed threshold",
        DamageSeverity.HIGH,
        4,
        "centrifuge",
        (
            ReplaceLine(
                "spin",
                (
                    WorkflowNode(
                        "spin_overspeed",
                        "start_action",
                        {"device": "centrifuge", "value": 9000.0},
                    ),
                ),
            ),
        ),
        {"initial": True, "modified": True, "modified_es": True},
    ),
    InjectedBug(
        "H6",
        "Unstoppered vial loaded into the centrifuge",
        DamageSeverity.HIGH,
        1,
        "centrifuge",
        (DeleteLine("cap_vial"),),
        {"initial": True, "modified": True, "modified_es": True},
    ),
)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_bug(
    bug: InjectedBug,
    config: str,
    exclude_rules: Tuple[str, ...] = (),
    compiled_dispatch: bool = True,
) -> BugOutcome:
    """Run one bug under one named configuration on a fresh testbed.

    ``exclude_rules`` supports the rule-knockout ablation: dropping the
    rule that carries a detection should turn it into a miss.
    ``compiled_dispatch=False`` runs the interpreted reference scan
    instead of the compiled decision lists (the differential suite pins
    both to identical outcomes)."""
    return run_bug_traced(bug, config, exclude_rules, compiled_dispatch)[0]


def run_bug_traced(
    bug: InjectedBug,
    config: str,
    exclude_rules: Tuple[str, ...] = (),
    compiled_dispatch: bool = True,
) -> Tuple[BugOutcome, List[CommandRecord]]:
    """:func:`run_bug`, also returning the run's command records."""
    try:
        options_factory = RABIT_CONFIGS[config]
    except KeyError:
        raise KeyError(f"unknown config {config!r}; known: {sorted(RABIT_CONFIGS)}") from None

    dag = build_preset(bug.workflow)
    ctx = build_context(
        dag.deck,
        dag.deck_params,
        dag.prepare,
        options=replace(options_factory(), compiled_dispatch=compiled_dispatch),
        exclude_rules=exclude_rules,
    )
    apply_mutations(dag, ctx.world, bug.mutations)
    result = execute_dag(dag, ctx)
    outcome = BugOutcome(
        bug=bug,
        config=config,
        detected=result.stopped_by_rabit,
        alert=str(result.alert) if result.alert else None,
        device_error=result.device_error,
        damage=ctx.world.damage_log,
        completed=result.completed,
    )
    return outcome, ctx.trace


def run_campaign(
    configs: Sequence[str] = ("initial", "modified", "modified_es"),
    bugs: Sequence[InjectedBug] = CAMPAIGN_BUGS,
    workers: Optional[int] = 1,
    trace_dir: Optional[str] = None,
) -> CampaignResult:
    """Run every bug under every configuration.

    ``workers > 1`` shards the (config, bug) grid over a process pool
    (``None`` means one worker per CPU); every bug run is independent and
    deterministic, so the merged result is identical to the sequential
    one in canonical configuration-major order.

    With *trace_dir* set, every outcome that deviates from the paper's
    reported detection auto-dumps a replayable run trace of the bug run
    there (recorded parent-side; bug runs are deterministic functions of
    ``(bug_id, config)``)."""
    from repro.parallel.engine import resolve_workers

    if resolve_workers(workers, len(configs) * len(bugs)) > 1:
        from repro.parallel.runners import run_campaign_sharded

        result = run_campaign_sharded(configs=configs, bugs=bugs, workers=workers)
    else:
        result = CampaignResult()
        for config in configs:
            for bug in bugs:
                result.outcomes.append(run_bug(bug, config))
    if trace_dir is not None:
        from repro.trace.workloads import dump_traces

        dump_traces(
            (
                (
                    "bug",
                    {"bug_id": o.bug.bug_id, "config": o.config},
                    f"bug-{o.bug.bug_id}-{o.config}",
                )
                for o in result.mismatches()
            ),
            trace_dir,
        )
    return result
