"""Command interception — the RATracer substitute.

§II-C: "We use an open-source tracing framework RATracer, which
instruments the Python experiment scripts to intercept and trace all
device commands at run time.  We reconfigure RATracer such that every
time it traces a command, it first checks with RABIT if the command is
safe to run: if RABIT raises an alert, the experiment is halted (RATracer
raises a Python exception in this case); otherwise, the command is
forwarded to the device and executed."

:class:`DeviceProxy` is that reconfigured tracer: it wraps a device
object, resolves each method call into an :class:`ActionCall`, asks the
:class:`~repro.core.monitor.Rabit` monitor to guard it, and appends a
:class:`CommandRecord` to the shared trace.  The record is the one
record of the command: it carries what the guard learned along the way
(rule-cache disposition, dispatch, sweep, lab state before and after),
and run traces and service journals are projections of it.  Methods
without an action mapping (``status``, helpers) pass straight through,
untraced — exactly like the low-level calls RATracer does not
instrument.

The proxy also charges the *baseline* execution time of every command to
the virtual clock, so the latency experiment can compute RABIT's
percentage overhead with and without the monitor in the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.actions import ActionCall, ActionLabel
from repro.core.clock import VirtualClock
from repro.core.errors import Alert, AlertKind, SafetyViolation
from repro.core.monitor import GuardFacts, Rabit, Sweep
from repro.core.state import LabState
from repro.devices.base import Device
from repro.devices.container import Vial
from repro.devices.dosing import SolidDosingDevice, SyringePump
from repro.devices.multi_door import MultiDoorDosingDevice
from repro.devices.action_device import ActionDeviceBase, Decapper
from repro.devices.locations import LocationKind
from repro.devices.robot import RobotArmDevice
from repro.obs import OBS

# The command-level families: each is a projection of the finished
# CommandRecord (see _count), so both front-ends count alike.
_OBS_COMMANDS = OBS.registry.counter(
    "rabit_commands_intercepted_total",
    "Commands resolved and intercepted by the tracing proxy.",
    labels=("device", "label"),
)
_OBS_VERDICTS = OBS.registry.counter(
    "rabit_command_verdicts_total",
    "Interception outcomes: allowed, or the alert kind that fired.",
    labels=("outcome",),
)
_OBS_ALERTS = OBS.registry.counter(
    "rabit_alerts_total",
    "Alerts raised, by alertAndStop site (Fig. 2).",
    labels=("kind",),
)
_OBS_GUARD_SECONDS = OBS.registry.histogram(
    "rabit_guard_wall_seconds",
    "Wall-clock seconds (perf_counter) per guarded command: the whole "
    "Fig. 2 round-trip, device execution included.",
    buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0),
)
_OBS_STATE_COMPARISONS = OBS.registry.counter(
    "rabit_state_comparisons_total",
    "Expected-vs-actual state comparisons, by outcome.",
    labels=("outcome",),
)
_OBS_RULE_CACHE_LOOKUPS = OBS.registry.counter(
    "rabit_rule_cache_lookups_total",
    "Rule-verdict cache lookups by result.",
    labels=("result",),
)
_OBS_SWEEP_CHECKS = OBS.registry.counter(
    "es_trajectory_checks_total",
    "Extended Simulator trajectory validations, by sweep path.",
    labels=("path",),
)
_OBS_SWEEP_VERDICTS = OBS.registry.counter(
    "es_trajectory_verdicts_total",
    "Extended Simulator sweep verdicts.",
    labels=("verdict",),
)
_OBS_SWEEP_SEGMENTS = OBS.registry.counter(
    "es_segments_swept_total",
    "Trajectory samples swept against the deck geometry.",
)
_OBS_SWEEP_SAMPLES = OBS.registry.histogram(
    "es_sweep_samples",
    "Samples per trajectory sweep.",
    buckets=(8, 16, 31, 64, 128, 256),
)

#: Nominal execution time per action, in virtual seconds.  Robot moves
#: dominate (a few seconds of arm motion); everything else is quicker.
#: These are the baseline the §II-C overhead percentages divide by.
BASELINE_DURATION: Dict[ActionLabel, float] = {
    ActionLabel.MOVE_ROBOT: 2.0,
    ActionLabel.MOVE_ROBOT_INSIDE: 2.0,
    ActionLabel.PICK_OBJECT: 2.5,
    ActionLabel.PLACE_OBJECT: 2.5,
    ActionLabel.OPEN_GRIPPER: 0.5,
    ActionLabel.CLOSE_GRIPPER: 0.5,
    ActionLabel.GO_HOME: 2.0,
    ActionLabel.GO_SLEEP: 2.0,
    ActionLabel.OPEN_DOOR: 1.5,
    ActionLabel.CLOSE_DOOR: 1.5,
    ActionLabel.START_DOSING: 3.0,
    ActionLabel.DOSE_LIQUID: 3.0,
    ActionLabel.STOP_DOSING: 0.5,
    ActionLabel.START_ACTION: 1.0,
    ActionLabel.STOP_ACTION: 0.5,
    ActionLabel.SET_ACTION_VALUE: 0.5,
    ActionLabel.ROTATE_ROTOR: 1.0,
    ActionLabel.CAP: 1.0,
    ActionLabel.DECAP: 1.0,
}


@dataclass(frozen=True)
class CommandRecord:
    """One traced command (the RATracer trace line).

    Carries every fact the guard produced for the command, so run traces
    and journals are projections of it."""

    time: float
    device: str
    method: str
    args: Tuple[Any, ...]
    label: Optional[ActionLabel]
    alert: Optional[Alert]
    #: Resolved location name for robot moves/picks/places, when known.
    location: Optional[str] = None
    #: How the monitor's rule-verdict cache answered this command
    #: (``"hit"``, ``"miss"`` or ``"disabled"``); ``None`` when no monitor
    #: guarded it.
    rule_cache: Optional[str] = None
    #: Which rulebase dispatch produced the verdict (``"compiled"`` or
    #: ``"interpreted"``); ``None`` when no monitor guarded it.
    dispatch: Optional[str] = None
    #: The Extended Simulator's sweep, or ``None`` when nothing was swept.
    sweep: Optional[Sweep] = None
    #: The monitor's lab state before and after the command; ``None``
    #: when FetchState never ran (unmonitored, blocked, or raised).
    state_before: Optional[LabState] = None
    state_after: Optional[LabState] = None
    #: Id of the command's ``intercept.command`` span (observability on).
    span_id: Optional[int] = None

    def __str__(self) -> str:
        outcome = f" !! {self.alert}" if self.alert else ""
        args = ", ".join(repr(a) for a in self.args)
        return f"[{self.time:9.3f}s] {self.device}.{self.method}({args}){outcome}"


_NO_FACTS = GuardFacts()


class Interception:
    """One intercepted command, from its clock charge to its record.

    A context manager around the guard.  Entering charges the command's
    baseline duration to the virtual clock; leaving builds the
    :class:`CommandRecord`, with the alert the guard raised (if any) and
    the monitor's :class:`~repro.core.monitor.GuardFacts`, and appends it
    to *trace* unless that is ``None``.
    :class:`DeviceProxy` and the guard service's sessions both guard
    through it, so their records agree field for field.

    It is also the guard path's one command-level instrumentation site.
    With observability on, the block runs inside an ``intercept.command``
    span and, when a monitor guards, a ``rabit.guard`` span whose wall
    time lands in ``rabit_guard_wall_seconds``; on exit the finished
    record is counted into the command-level metric families.
    """

    __slots__ = (
        "_rabit", "_clock", "_device", "_method", "_args", "_call", "_trace",
        "_alerts_before", "_spans", "record",
    )

    def __init__(
        self,
        rabit: Optional[Rabit],
        clock: VirtualClock,
        device: Device,
        method: str,
        args: Tuple[Any, ...],
        call: ActionCall,
        trace: Optional[List[CommandRecord]],
    ) -> None:
        self._rabit = rabit
        self._clock = clock
        self._device = device
        self._method = method
        self._args = args
        self._call = call
        self._trace = trace
        self._alerts_before = 0
        self._spans: Optional[_CommandSpans] = None
        #: The appended record, once the block has exited.
        self.record: Optional[CommandRecord] = None

    def __enter__(self) -> "Interception":
        self._clock.advance(
            self._device.connection.command_latency
            + BASELINE_DURATION.get(self._call.label, 1.0),
            "experiment",
        )
        if self._rabit is not None:
            self._alerts_before = self._rabit.alert_count
        if OBS.enabled:
            self._spans = _CommandSpans(
                self._device.name, self._method, self._call, self._rabit is not None
            )
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        rabit = self._rabit
        alert: Optional[Alert] = None
        if isinstance(exc, SafetyViolation):
            alert = exc.alert
        elif rabit is not None and rabit.alert_count > self._alerts_before:
            alert = rabit.last_alert()
        facts = rabit.facts if rabit is not None else _NO_FACTS
        spans = self._spans
        if spans is not None:
            spans.close(exc_type, exc, tb)
        call = self._call
        self.record = CommandRecord(
            time=self._clock.now,
            device=self._device.name,
            method=self._method,
            args=self._args,
            label=call.label,
            alert=alert,
            location=call.location,
            rule_cache=facts.rule_cache,
            dispatch=facts.dispatch,
            sweep=facts.sweep,
            state_before=facts.state_before,
            state_after=facts.state_after,
            span_id=spans.span_id if spans is not None else None,
        )
        if self._trace is not None:
            self._trace.append(self.record)
        if spans is not None:
            _count(self.record)
        return False


class _CommandSpans:
    """The spans and guard timer of one command while observability is on.

    Opens ``intercept.command`` and, for a guarded command, ``rabit.guard``
    inside it, so every stage span the monitor opens nests under both."""

    __slots__ = ("_command", "span_id", "_guard", "_guard_span", "_started")

    def __init__(
        self, device: str, method: str, call: ActionCall, guarded: bool
    ) -> None:
        label = call.label.value
        self._command = OBS.span(
            "intercept.command", device=device, method=method, label=label
        )
        #: Id of the ``intercept.command`` span, for the record.
        self.span_id: int = self._command.__enter__().span_id
        self._guard = None
        if guarded:
            self._started = time.perf_counter()
            self._guard = OBS.span("rabit.guard", label=label, device=call.device)
            self._guard_span = self._guard.__enter__()

    def close(self, exc_type: Any, exc: Any, tb: Any) -> None:
        """Close both spans; a guard stopped by an alert says so."""
        if self._guard is not None:
            if isinstance(exc, SafetyViolation):
                self._guard_span.set(outcome="stopped", alert=str(exc.alert))
            elif exc_type is None:
                self._guard_span.set(outcome="completed")
            _OBS_GUARD_SECONDS.observe(time.perf_counter() - self._started)
            self._guard.__exit__(exc_type, exc, tb)
        self._command.__exit__(exc_type, exc, tb)


def _count(record: CommandRecord) -> None:
    """Count one finished record into the command-level metric families."""
    alert = record.alert
    _OBS_COMMANDS.inc(1, device=record.device, label=record.label.value)
    _OBS_VERDICTS.inc(1, outcome=alert.kind.value if alert else "allowed")
    if alert is not None:
        _OBS_ALERTS.inc(1, kind=alert.kind.value)
    if record.rule_cache in ("hit", "miss"):
        _OBS_RULE_CACHE_LOOKUPS.inc(1, result=record.rule_cache)
    sweep = record.sweep
    if sweep is not None:
        _OBS_SWEEP_CHECKS.inc(1, path=sweep.path)
        _OBS_SWEEP_SEGMENTS.inc(float(sweep.samples))
        _OBS_SWEEP_SAMPLES.observe(float(sweep.samples))
        _OBS_SWEEP_VERDICTS.inc(1, verdict="collision" if sweep.verdict else "clear")
    # FetchState ran, so the monitor compared expected and actual state;
    # a mismatch is exactly what raises "Device malfunction!".
    if record.state_after is not None:
        mismatch = alert is not None and alert.kind is AlertKind.DEVICE_MALFUNCTION
        _OBS_STATE_COMPARISONS.inc(1, outcome="mismatch" if mismatch else "match")


class DeviceProxy:
    """Wraps one device; intercepts, resolves, guards, and traces calls."""

    #: Max distance (m) between the arm's reported position and a
    #: location's coordinates for gripper commands to be attributed to it.
    LOCATION_MATCH_TOLERANCE = 0.05

    def __init__(
        self,
        device: Device,
        rabit: Optional[Rabit],
        trace: List[CommandRecord],
        clock: VirtualClock,
    ) -> None:
        self._device = device
        self._rabit = rabit
        self._trace = trace
        self._clock = clock

    # Expose identity for convenience in scripts/tests.
    @property
    def name(self) -> str:
        """Name of the wrapped device."""
        return self._device.name

    @property
    def wrapped(self) -> Device:
        """The underlying device object."""
        return self._device

    def __getattr__(self, attr: str) -> Any:
        attr_callable = getattr(self._device, attr)
        if not callable(attr_callable):
            return attr_callable
        resolver = _resolver_for(self._device, attr)
        if resolver is None:
            return attr_callable  # unmodeled method: pass through untraced

        def traced(*args: Any, **kwargs: Any) -> Any:
            call = resolver(self._device, args, kwargs)
            with Interception(
                self._rabit, self._clock, self._device, attr, args, call, self._trace
            ):
                if self._rabit is None:
                    return attr_callable(*args, **kwargs)
                return self._rabit.guard(call, lambda: attr_callable(*args, **kwargs))

        return traced


# ---------------------------------------------------------------------------
# Resolvers: (device, args, kwargs) -> ActionCall
# ---------------------------------------------------------------------------

Resolver = Callable[[Device, tuple, dict], ActionCall]


def _nearest_location(robot: RobotArmDevice) -> Optional[str]:
    """Attribute a gripper command to the location the arm hovers over.

    Uses the robot's *status command* (its observable position) — the same
    information RABIT legitimately has via the device connection.  All
    candidate coordinates are packed into one ``(L, 3)`` array and ranked
    with a single vectorized distance computation instead of one norm per
    location (gripper commands fire on every pick/place, so this sits on
    the interception hot path)."""
    reported = np.asarray(robot.status()["position"], dtype=np.float64)
    names: List[str] = []
    coords: List[Tuple[float, float, float]] = []
    for loc in robot.world.locations:
        try:
            coords.append(loc.coord_for(robot.name))
        except KeyError:
            continue
        names.append(loc.name)
    if not names:
        return None
    dists = np.linalg.norm(
        np.asarray(coords, dtype=np.float64) - reported[None, :], axis=1
    )
    best = int(np.argmin(dists))
    if float(dists[best]) >= DeviceProxy.LOCATION_MATCH_TOLERANCE:
        return None
    return names[best]


def _move_call(robot: RobotArmDevice, ref: Any, method: str) -> ActionCall:
    target, location = robot.resolve_location(ref)
    label = ActionLabel.MOVE_ROBOT
    loc_name = None
    if location is not None:
        loc_name = location.name
        if location.kind is LocationKind.DEVICE_INTERIOR:
            label = ActionLabel.MOVE_ROBOT_INSIDE
    return ActionCall(
        label=label,
        device=robot.name,
        robot=robot.name,
        location=loc_name,
        target=(float(target[0]), float(target[1]), float(target[2])),
        raw_command=f"{robot.name}.{method}({ref!r})",
    )


def _pickplace_call(robot: RobotArmDevice, ref: Any, label: ActionLabel) -> ActionCall:
    target, location = robot.resolve_location(ref)
    return ActionCall(
        label=label,
        device=robot.name,
        robot=robot.name,
        location=location.name if location is not None else None,
        target=(float(target[0]), float(target[1]), float(target[2])),
        raw_command=f"{robot.name}.{label.value}({ref!r})",
    )


def resolve_action(
    device: Device, method: str, args: tuple = (), kwargs: Optional[dict] = None
) -> Optional[ActionCall]:
    """Resolve one concrete device call into its :class:`ActionCall`.

    The public face of the proxy's resolver table for callers that guard
    commands without wrapping the device in a :class:`DeviceProxy` — the
    serve front-end resolves each wire request through here so service
    and in-process paths classify commands identically.  Returns ``None``
    for unmodeled methods (which the proxy passes through untraced).
    """
    resolver = _resolver_for(device, method)
    if resolver is None:
        return None
    return resolver(device, args, kwargs or {})


def _resolver_for(device: Device, method: str) -> Optional[Resolver]:
    """Resolve a (device type, method) pair to an ActionCall factory."""
    if isinstance(device, RobotArmDevice):
        if method in ("move_to_location", "move_pose"):
            return lambda d, a, k: _move_call(d, a[0] if a else k["ref"], method)
        if method == "go_to_home_pose":
            return lambda d, a, k: ActionCall(
                ActionLabel.GO_HOME, d.name, robot=d.name, raw_command=f"{d.name}.go_to_home_pose()"
            )
        if method == "go_to_sleep_pose":
            return lambda d, a, k: ActionCall(
                ActionLabel.GO_SLEEP, d.name, robot=d.name, raw_command=f"{d.name}.go_to_sleep_pose()"
            )
        if method == "pick_up_vial":
            return lambda d, a, k: _pickplace_call(
                d, a[0] if a else k["ref"], ActionLabel.PICK_OBJECT
            )
        if method == "place_vial":
            return lambda d, a, k: _pickplace_call(
                d, a[0] if a else k["ref"], ActionLabel.PLACE_OBJECT
            )
        if method == "open_gripper":
            return lambda d, a, k: ActionCall(
                ActionLabel.OPEN_GRIPPER,
                d.name,
                robot=d.name,
                location=_nearest_location(d),
                raw_command=f"{d.name}.open_gripper()",
            )
        if method == "close_gripper":
            return lambda d, a, k: ActionCall(
                ActionLabel.CLOSE_GRIPPER,
                d.name,
                robot=d.name,
                location=_nearest_location(d),
                raw_command=f"{d.name}.close_gripper()",
            )
        return None

    if isinstance(device, SolidDosingDevice):
        if method == "set_door":
            return lambda d, a, k: ActionCall(
                ActionLabel.OPEN_DOOR
                if (a[1] if len(a) > 1 else k.get("state")) == "open"
                else ActionLabel.CLOSE_DOOR,
                d.name,
                raw_command=f"{d.name}.set_door{a!r}",
            )
        if method == "open_door":
            return lambda d, a, k: ActionCall(ActionLabel.OPEN_DOOR, d.name)
        if method == "close_door":
            return lambda d, a, k: ActionCall(ActionLabel.CLOSE_DOOR, d.name)
        if method in ("run_action", "dose_solid"):
            return lambda d, a, k: ActionCall(
                ActionLabel.START_DOSING,
                d.name,
                quantity=float(
                    k.get("quantity", k.get("amount_mg", a[1] if len(a) > 1 else (a[0] if a else 0.0)))
                ),
                raw_command=f"{d.name}.{method}{a!r}",
            )
        if method == "stop_action":
            return lambda d, a, k: ActionCall(ActionLabel.STOP_DOSING, d.name)
        return None

    if isinstance(device, MultiDoorDosingDevice):
        if method == "set_door":
            return lambda d, a, k: ActionCall(
                ActionLabel.OPEN_DOOR
                if (a[1] if len(a) > 1 else k.get("state")) == "open"
                else ActionLabel.CLOSE_DOOR,
                f"{d.name}:{a[0] if a else k.get('door_name')}",
                raw_command=f"{d.name}.set_door{a!r}",
            )
        if method in ("open_door", "close_door"):
            label = ActionLabel.OPEN_DOOR if method == "open_door" else ActionLabel.CLOSE_DOOR
            return lambda d, a, k, label=label: ActionCall(
                label,
                f"{d.name}:{a[0] if a else k.get('door_name')}",
                raw_command=f"{d.name}.{method}{a!r}",
            )
        if method == "dose_solid":
            return lambda d, a, k: ActionCall(
                ActionLabel.START_DOSING,
                d.name,
                quantity=float(a[0] if a else k.get("amount_mg", 0.0)),
                raw_command=f"{d.name}.dose_solid{a!r}",
            )
        if method == "stop_action":
            return lambda d, a, k: ActionCall(ActionLabel.STOP_DOSING, d.name)
        return None

    if isinstance(device, SyringePump):
        if method in ("dose_initial_solvent", "dose_solvent"):
            return lambda d, a, k: ActionCall(
                ActionLabel.DOSE_LIQUID,
                d.name,
                quantity=float(a[0] if a else k.get("volume_ml", 0.0)),
                raw_command=f"{d.name}.{method}{a!r}",
            )
        if method == "stop":
            return lambda d, a, k: ActionCall(ActionLabel.STOP_DOSING, d.name)
        return None

    if isinstance(device, Decapper):
        if method in ("cap", "decap"):
            label = ActionLabel.CAP if method == "cap" else ActionLabel.DECAP
            def resolve(d: Decapper, a: tuple, k: dict, label=label) -> ActionCall:
                vial = d.world.vial_inside_device(d.name)
                return ActionCall(
                    label,
                    vial.name if vial is not None else d.name,
                    raw_command=f"{d.name}.{method}()",
                )
            return resolve

    if isinstance(device, ActionDeviceBase):
        if method == "set_door":
            return lambda d, a, k: ActionCall(
                ActionLabel.OPEN_DOOR
                if (a[1] if len(a) > 1 else k.get("state")) == "open"
                else ActionLabel.CLOSE_DOOR,
                d.name,
                raw_command=f"{d.name}.set_door{a!r}",
            )
        if method == "open_door":
            return lambda d, a, k: ActionCall(ActionLabel.OPEN_DOOR, d.name)
        if method == "close_door":
            return lambda d, a, k: ActionCall(ActionLabel.CLOSE_DOOR, d.name)
        if method in ("start_action", "stir_solution", "shake"):
            return lambda d, a, k: ActionCall(
                ActionLabel.START_ACTION,
                d.name,
                value=float(a[0]) if a else k.get("value", k.get("temperature", k.get("speed_rpm"))),
                raw_command=f"{d.name}.{method}{a!r}",
            )
        if method == "set_action_value":
            return lambda d, a, k: ActionCall(
                ActionLabel.SET_ACTION_VALUE,
                d.name,
                value=float(a[0] if a else k.get("value", 0.0)),
                raw_command=f"{d.name}.set_action_value{a!r}",
            )
        if method == "stop_action":
            return lambda d, a, k: ActionCall(ActionLabel.STOP_ACTION, d.name)
        if method == "rotate_rotor":
            return lambda d, a, k: ActionCall(
                ActionLabel.ROTATE_ROTOR,
                d.name,
                direction=str(a[0] if a else k.get("direction")),
                raw_command=f"{d.name}.rotate_rotor{a!r}",
            )
        return None

    if isinstance(device, Vial):
        if method == "cap_vial":
            return lambda d, a, k: ActionCall(ActionLabel.CAP, d.name)
        if method == "decap_vial":
            return lambda d, a, k: ActionCall(ActionLabel.DECAP, d.name)
        return None

    return None


def instrument(
    devices: Dict[str, Device],
    rabit: Optional[Rabit],
    clock: Optional[VirtualClock] = None,
    trace: Optional[List[CommandRecord]] = None,
) -> Tuple[Dict[str, DeviceProxy], List[CommandRecord]]:
    """Wrap every device in a tracing proxy bound to *rabit*.

    Pass ``rabit=None`` to trace commands without any safety monitoring —
    the latency experiment's baseline configuration.  Returns the proxy
    map and the shared trace list.
    """
    the_clock = clock or (rabit.clock if rabit is not None else VirtualClock())
    the_trace: List[CommandRecord] = trace if trace is not None else []
    proxies = {
        name: DeviceProxy(device, rabit, the_trace, the_clock)
        for name, device in devices.items()
    }
    return proxies, the_trace
