"""The Fig. 2 execution algorithm.

:class:`Rabit` intercepts each command (via
:mod:`repro.core.interceptor`), and per Fig. 2:

1.  ``Valid(S_current, a_next)`` — evaluate every applicable rule's
    precondition; on failure, ``alertAndStop("Invalid Command!")``
    *before* execution (lines 6-7).
2.  For robot commands with a simulator attached,
    ``ValidTrajectory(a_next)`` — the Extended Simulator sweeps the
    actually-planned trajectory; on predicted collision,
    ``alertAndStop("Invalid trajectory!")`` (lines 8-10).
3.  ``S_expected <- UpdateState(S_current, a_next)`` via the transition
    table (line 11).
4.  Execute the command (line 12).
5.  ``S_actual <- FetchState()`` — one status round-trip per device
    (line 13).
6.  ``S_actual != S_expected`` over observable variables →
    ``alertAndStop("Device malfunction!")`` (lines 14-15).
7.  ``S_current <- S_actual`` (line 16).

Steps 5-7 are one pass: each reported entry is compared with
``S_expected`` and written into it, so ``S_expected`` becomes
``S_current`` with no observed snapshot in between.

:class:`RabitOptions` captures the paper's two deployed revisions:
``RabitOptions.initial()`` is RABIT as first evaluated (detects 8/16
campaign bugs); ``RabitOptions.modified()`` adds held-object geometry,
capacity enforcement, and workspace bounds (12/16); pairing either with
``use_extended_simulator=True`` adds full trajectory sweeps (13/16).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Protocol

from repro.core.actions import ActionCall, ActionLabel, TransitionTable
from repro.core.clock import VirtualClock
from repro.core.errors import Alert, AlertKind, SafetyViolation
from repro.core.model import RabitLabModel
from repro.core.rulebase import CheckContext, RuleBase, build_default_rulebase
from repro.core.rulecache import MISS, RuleVerdictCache
from repro.core.state import LabState
from repro.devices.base import Device
from repro.obs import OBS

_OBS_STATUS_REQUESTS = OBS.registry.counter(
    "device_status_requests_total",
    "FetchState status round-trips, by device.",
    labels=("device",),
)

#: Virtual seconds of RABIT bookkeeping per intercepted command.
BOOKKEEPING_LATENCY = 0.004

#: Virtual seconds per Extended Simulator invocation when its GUI is in
#: the loop (§II-C measured ~2 s; "we plan to bypass the GUI"), charged
#: unless ``RabitOptions.bypass_gui`` is set.
GUI_LATENCY = 2.0

#: Action labels that move a robot arm (Fig. 2's ``isRobotCommand``).
ROBOT_MOVE_LABELS = frozenset(
    {
        ActionLabel.MOVE_ROBOT,
        ActionLabel.MOVE_ROBOT_INSIDE,
        ActionLabel.PICK_OBJECT,
        ActionLabel.PLACE_OBJECT,
        ActionLabel.GO_HOME,
        ActionLabel.GO_SLEEP,
    }
)


class Sweep(NamedTuple):
    """One trajectory sweep: which path ran, how many samples, the verdict."""

    #: Always ``"batch"``, the packed engine: the only sweep the guard
    #: runs.  Kept so run traces and the ``path`` metric label keep their
    #: shape until the next trace schema version.
    path: str
    samples: int
    #: The collision message, or ``None`` when the trajectory is clear.
    verdict: Optional[str]


@dataclass
class GuardFacts:
    """What one guard learned besides its verdict.

    :class:`Rabit` starts a fresh instance at the start of every guard;
    the interceptor copies it onto the command's
    :class:`~repro.core.interceptor.CommandRecord`.
    """

    #: How the rule-verdict cache answered: ``"hit"``, ``"miss"`` or
    #: ``"disabled"``.
    rule_cache: Optional[str] = None
    #: Which dispatch produced the verdict: ``"compiled"`` or ``"interpreted"``.
    dispatch: Optional[str] = None
    #: The Extended Simulator's sweep, or ``None`` when nothing was swept.
    sweep: Optional[Sweep] = None
    #: The monitor's state before and after the command; ``None`` when
    #: FetchState never ran (the command was blocked or raised).  The
    #: monitor replaces its state at every command rather than editing
    #: it, so both references stay valid; only :meth:`Rabit.seed_tracked`
    #: edits the current state, and decks seed before their first command.
    state_before: Optional[LabState] = None
    state_after: Optional[LabState] = None


class TrajectoryChecker(Protocol):
    """Interface the Extended Simulator implements (Fig. 2 line 9)."""

    def validate_trajectory(
        self, call: ActionCall, state: LabState, model: RabitLabModel,
        account_held_objects: bool, facts: Optional[GuardFacts] = None,
    ) -> Optional[str]:
        """Reason the trajectory is invalid, or ``None`` if collision-free;
        the sweep that ran goes to ``facts.sweep`` when *facts* is given."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RabitOptions:
    """Feature flags distinguishing the paper's RABIT revisions."""

    #: Model held-object geometry in collision checks (post-Bug-D fix).
    account_held_objects: bool = True
    #: Enforce container capacities in Rule 8.
    enforce_capacity: bool = True
    #: Enforce per-frame workspace bounds (deck edges / walls).
    enforce_workspace_bounds: bool = True
    #: Consult the Extended Simulator for robot commands.
    use_extended_simulator: bool = False
    #: Stop the experiment on an alert (the Hein Lab's recommendation);
    #: False logs the alert and lets execution continue (fail-safe mode).
    preemptive_stop: bool = True
    #: Whether the Extended Simulator's GUI is bypassed (deployment plan).
    bypass_gui: bool = False
    #: Max entries of the rule-verdict cache; 0 disables it (every command
    #: pays the full rulebase scan — the reference behaviour the cache's
    #: property tests compare against).
    rule_cache_size: int = 256
    #: Consult the compiled per-(device-type, action-label) dispatch
    #: tables (``RuleBase.compiled()``) and the incremental state
    #: fingerprint token on the cold path; ``False`` selects the
    #: interpreted full-scan reference path with the exact content-tuple
    #: cache key.  Verdicts are pinned identical across both settings by
    #: the compiled-vs-interpreted differential suite.
    compiled_dispatch: bool = True

    @classmethod
    def initial(cls, **overrides: Any) -> "RabitOptions":
        """RABIT as first deployed: bare-arm geometry only."""
        base = cls(
            account_held_objects=False,
            enforce_capacity=False,
            enforce_workspace_bounds=False,
        )
        return replace(base, **overrides)

    @classmethod
    def modified(cls, **overrides: Any) -> "RabitOptions":
        """RABIT after the §IV fixes."""
        return replace(cls(), **overrides)


class Rabit:
    """The RABIT monitor bound to one lab."""

    def __init__(
        self,
        model: RabitLabModel,
        devices: Dict[str, Device],
        options: Optional[RabitOptions] = None,
        rulebase: Optional[RuleBase] = None,
        trajectory_checker: Optional[TrajectoryChecker] = None,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        self.model = model
        self.devices = dict(devices)
        self.options = options or RabitOptions.modified()
        self.rulebase = rulebase or build_default_rulebase(model.custom_rule_ids)
        self.trajectory_checker = trajectory_checker
        self.clock = clock or VirtualClock()
        self.transition_table = TransitionTable()
        self.state = LabState()
        #: Memoized rulebase verdicts (None when disabled via options).
        self.rule_cache: Optional[RuleVerdictCache] = (
            RuleVerdictCache(self.options.rule_cache_size)
            if self.options.rule_cache_size > 0
            else None
        )
        #: What the current (or last) guard learned besides its verdict.
        self.facts = GuardFacts()
        #: Every alert raised so far (kept even in fail-safe mode).
        self.alerts: List[Alert] = []
        #: Post-action observers (the time multiplexer registers here).
        self.observers: List[Callable[[ActionCall], None]] = []
        self._initialized = False

    # ------------------------------------------------------------------
    # Initialization (Fig. 2 lines 1-3)
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Acquire ``S_initial`` from status commands and set ``S_current``."""
        state = self.state.copy()
        self._fetch_and_adopt(state)
        self.state = state
        self._initialized = True

    def seed_tracked(self, var: str, key: str, value: Any) -> None:
        """Seed a tracked (unobservable) variable of the initial state.

        The researcher supplies the initial inventory — which vial starts
        where and what it contains — because no sensor can report it."""
        self.state.set(var, key, value)

    # ------------------------------------------------------------------
    # The guarded execution path (Fig. 2 lines 4-16)
    # ------------------------------------------------------------------

    def guard(self, call: ActionCall, execute: Callable[[], Any]) -> Any:
        """Validate *call*, run *execute*, verify the resulting state.

        Raises :class:`SafetyViolation` on any alert when
        ``preemptive_stop`` is set; otherwise records the alert and, for
        precondition/trajectory alerts, still skips the unsafe command.
        """
        reason = self._guard_prelude(call)
        if reason is not None:
            return self._precondition_alert(call, reason)

        # Lines 8-10: trajectory validation for robot commands.
        if self._wants_trajectory(call):
            problem = self.trajectory_checker.validate_trajectory(
                call,
                self.state,
                self.model,
                account_held_objects=self.options.account_held_objects,
                facts=self.facts,
            )
            if problem is not None:
                return self._trajectory_alert(call, problem)

        expected = self._guard_expected(call)

        # Line 12: execute the (now believed-safe) command.
        with self._execute_span(call):
            result = execute()

        self._guard_postlude(call, expected)
        return result

    async def guard_async(
        self,
        call: ActionCall,
        execute: Callable[[], Any],
        trajectory: Optional[Callable[[ActionCall], Any]] = None,
    ) -> Any:
        """The asynchronous Fig. 2 round-trip (the serve front-end path).

        *execute* is an async callable (device I/O the event loop can
        overlap across sessions); *trajectory*, when given, replaces the
        synchronous trajectory checker with an awaitable so the serve
        layer can route sweeps through the cross-session batcher (it
        records its sweep in :attr:`facts` itself).  The
        stages, their order, the clock charges, and the alert
        construction are shared with :meth:`guard` — the serve
        differential suite pins the two paths verdict-byte-identical.

        Spans are safe here: the runtime keeps its open-span stack in a
        ``contextvars`` variable, so concurrent sessions awaiting inside
        ``rabit.execute`` nest their spans per-task.
        """
        reason = self._guard_prelude(call)
        if reason is not None:
            return self._precondition_alert(call, reason)

        if self._wants_trajectory(call):
            if trajectory is not None:
                problem = await trajectory(call)
            else:
                problem = self.trajectory_checker.validate_trajectory(
                    call,
                    self.state,
                    self.model,
                    account_held_objects=self.options.account_held_objects,
                    facts=self.facts,
                )
            if problem is not None:
                return self._trajectory_alert(call, problem)

        expected = self._guard_expected(call)

        with self._execute_span(call):
            result = await execute()

        self._guard_postlude(call, expected)
        return result

    # -- Fig. 2 stages (shared between the sync and async guards) ------

    def _guard_prelude(self, call: ActionCall) -> Optional[tuple]:
        """Lines 4-7: clock charges and precondition validation.

        Returns the ``(rule_id, message)`` violation, or ``None``."""
        self.facts = GuardFacts()
        if not self._initialized:
            self.initialize()
        self.clock.advance(BOOKKEEPING_LATENCY, "rabit_bookkeeping")
        # With the Extended Simulator attached, its GUI (in a VM) mirrors
        # every command so the deck view stays in sync — this render loop
        # is the dominant §II-C cost ("invoked each time RABIT checks"),
        # and the one the paper plans to bypass for deployment.
        if (
            self.options.use_extended_simulator
            and self.trajectory_checker is not None
            and not self.options.bypass_gui
        ):
            self.clock.advance(GUI_LATENCY, "rabit_simulator_gui")

        # Lines 6-7: precondition validation.
        with OBS.span("rabit.validate", label=call.label.value):
            return self._validate(call)

    def _execute_span(self, call: ActionCall) -> Any:
        """Line 12's ``rabit.execute`` span (a no-op while observability is off)."""
        return OBS.span("rabit.execute", device=call.device)

    def _wants_trajectory(self, call: ActionCall) -> bool:
        """Fig. 2 line 8: is this a robot command with a simulator attached?"""
        return (
            call.label in ROBOT_MOVE_LABELS
            and self.options.use_extended_simulator
            and self.trajectory_checker is not None
        )

    def _precondition_alert(self, call: ActionCall, reason: tuple) -> None:
        rule_id, message = reason
        return self._alert(
            Alert(
                kind=AlertKind.INVALID_COMMAND,
                message=message,
                command=call.describe(),
                rule_id=rule_id,
            )
        )

    def _trajectory_alert(self, call: ActionCall, problem: str) -> None:
        return self._alert(
            Alert(
                kind=AlertKind.INVALID_TRAJECTORY,
                message=problem,
                command=call.describe(),
            )
        )

    def _guard_expected(self, call: ActionCall) -> LabState:
        """Line 11: expected state from postconditions."""
        return self.transition_table.expected_state(
            self.state, call, self.model.transition_context()
        )

    def _guard_postlude(self, call: ActionCall, expected: LabState) -> None:
        """Lines 13-16: fetch actual state, compare, adopt, notify.

        *expected* is the private copy :meth:`_guard_expected` built; the
        pass turns it into ``S_current`` (observed over expected)."""
        mismatch = self._fetch_and_adopt(expected)
        previous = self.state
        self.state = expected
        for observer in self.observers:
            observer(call)
        # Taken after the observers, so multiplexing-driven state edits
        # land in the record of the command that caused them.
        self.facts.state_before = previous
        self.facts.state_after = self.state
        if mismatch is not None:
            var, key, want, got = mismatch
            self._alert(
                Alert(
                    kind=AlertKind.DEVICE_MALFUNCTION,
                    message=(
                        f"after {call.label.value}: expected {var}[{key}] = "
                        f"{want!r} but device reports {got!r}"
                    ),
                    command=call.describe(),
                    involved=(key,),
                )
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _validate(self, call: ActionCall) -> Optional[tuple]:
        verdict = self._rulebase_verdict(call)
        if verdict is not None:
            return verdict
        # Extra preconditions (the multiplexing hook) run uncached: they
        # may consult ambient context (e.g. the virtual clock) that the
        # cache key cannot see.
        for precondition in self.model.extra_preconditions:
            message = precondition(self.state, call)
            if message is not None:
                return None, message
        return None

    def _rulebase_verdict(self, call: ActionCall) -> Optional[tuple]:
        """First violated rule as ``(rule_id, message)``, memoized.

        The cache key covers everything the rulebase scan reads — the call,
        the full state contents, the rulebase revision, and the model's
        mutable beliefs — so repeated safe commands against unchanged state
        skip the scan entirely while any state transition, added rule, or
        model mutation forces a fresh evaluation.

        With ``compiled_dispatch`` set (the default) the *cold* path is
        cheap too: the scan runs against the rulebase's compiled
        per-label decision lists (recompiled whenever the rulebase
        revision moves) and the state contribution to the cache key is
        the O(1) incremental token instead of the full content-tuple
        rebuild.  Both substitutions are verdict-preserving; the
        interpreted scan plus exact tuple key remains selectable as the
        reference path.
        """
        compiled = self.options.compiled_dispatch
        facts = self.facts
        facts.dispatch = "compiled" if compiled else "interpreted"
        key = None
        if self.rule_cache is not None:
            key = (
                call,
                self.state.fingerprint_token() if compiled else self.state.fingerprint(),
                self.rulebase.revision,
                self.model.belief_fingerprint(),
            )
            cached = self.rule_cache.lookup(key)
            if cached is not MISS:
                facts.rule_cache = "hit"
                return cached
        ctx = CheckContext(
            state=self.state,
            call=call,
            model=self.model,
            account_held_objects=self.options.account_held_objects,
            enforce_workspace_bounds=self.options.enforce_workspace_bounds,
            enforce_capacity=self.options.enforce_capacity,
        )
        engine = self.rulebase.compiled() if compiled else self.rulebase
        hit = engine.check_action(ctx)
        verdict = None
        if hit is not None:
            rule, message = hit
            verdict = (rule.rule_id, message)
        if self.rule_cache is not None:
            self.rule_cache.store(key, verdict)
            facts.rule_cache = "miss"
        else:
            facts.rule_cache = "disabled"
        return verdict

    def _alert(self, alert: Alert) -> None:
        self.alerts.append(alert)
        if self.options.preemptive_stop:
            raise SafetyViolation(alert)
        return None

    def _fetch_and_adopt(self, state: LabState) -> Optional[tuple]:
        """Fig. 2 lines 13-16 in one pass: ``FetchState()``, one status
        round-trip per device, with every reported entry compared with
        *state* and written into it (:meth:`LabState.adopt_observed`).

        Returns the mismatch with the smallest ``(var, key)`` as
        ``(var, key, expected, actual)`` — the first one
        ``LabState.diff_observable`` would list — or ``None``.  That
        holds because no two entries of one pass share a ``(var, key)``:
        device names are unique and contain no colon, which separates a
        compound door key."""
        first = None
        with OBS.span("rabit.fetch_state", devices=len(self.devices)):
            for name, device in self.devices.items():
                self.clock.advance(device.connection.status_latency, "rabit_fetch_state")
                report = device.status()
                if OBS.enabled:
                    _OBS_STATUS_REQUESTS.inc(1, device=name)
                for status_key, value in report.items():
                    if status_key.startswith("door:"):
                        # Multi-door devices report one state per named door
                        # under the compound key "<device>:<door>" (§V-C).
                        var, key = "door_status", f"{name}:{status_key[len('door:'):]}"
                    else:
                        var, key = _STATUS_KEY_TO_VAR.get(status_key), name
                        if var is None:
                            continue
                    mismatch = state.adopt_observed(var, key, value)
                    if mismatch is not None and (
                        first is None or mismatch[:2] < first[:2]
                    ):
                        first = mismatch
        return first

    @property
    def alert_count(self) -> int:
        """Number of alerts raised so far."""
        return len(self.alerts)

    def last_alert(self) -> Optional[Alert]:
        """Most recent alert, if any."""
        return self.alerts[-1] if self.alerts else None


#: How device status-report keys map onto state variables.
_STATUS_KEY_TO_VAR: Dict[str, str] = {
    "door": "door_status",
    "active": "device_active",
    "action_value": "action_value",
    "red_dot": "red_dot",
    "stopper": "container_stopper",
    "dispensed_mg": "dispensed_mg",
    "dispensed_ml": "dispensed_ml",
    "gripper": "gripper",
    "occupied": "zone_occupied",
    # "position" is intentionally unmapped: Cartesian position is not one
    # of RABIT's discrete state variables (Table II), which is why silent
    # skips and mid-space collisions produce no state discrepancy.
}
