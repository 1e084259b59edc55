"""One multiplexed lab session inside the guard service.

A :class:`GuardSession` owns everything per-session the monitor's
correctness depends on — deck, :class:`LabState`, rule-verdict cache,
virtual clock, verdict journal — and shares exactly two things with its
siblings: the tenant's :class:`~repro.core.rulebase.RuleBase` (hence its
memoized compiled dispatch snapshot) and the
:class:`~repro.serve.batcher.SweepBatcher`.

Command handling is :class:`~repro.core.interceptor.DeviceProxy`'s —
the same action resolution, and the same
:class:`~repro.core.interceptor.Interception` for the virtual-clock
charge, the alert, the record and its spans and metrics — but guards through
:meth:`Rabit.guard_async` so the event loop can overlap many sessions'
device I/O, and routes trajectory sweeps through the shared batcher.
``io_latency`` models the wall-clock the physical lab spends per command
(arm motion, device round-trips) as a real ``asyncio.sleep``: virtual
-clock accounting is untouched, but the service gets to interleave other
sessions' guard work under it — which is where the aggregate throughput
win comes from.

The deck executes *inside the service* here; a production deployment
would swap the device call for the remote lab driver's awaitable.  The
session journals every guarded command as the wire projection
(:func:`repro.serve.journal.journal_entry`) of the interceptor's
:class:`~repro.core.interceptor.CommandRecord`, byte-identical to the
in-process path.  It keeps no record, so a long session does not hold
one :class:`~repro.core.state.LabState` per command.  A command that
raises once its guard has started ends the session with
:class:`DeviceError`, as the same exception stops an in-process script.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

from repro.core.actions import ActionCall
from repro.core.clock import VirtualClock
from repro.core.errors import SafetyViolation
from repro.core.interceptor import Interception, resolve_action
from repro.core.monitor import Rabit, RabitOptions, Sweep
from repro.core.rulebase import RuleBase
from repro.lab.decks import build_deck, make_rabit
from repro.serve.batcher import SweepBatcher
from repro.serve.journal import journal_entry
from repro.trace.canon import content_digest

__all__ = [
    "DeviceError",
    "GuardSession",
    "build_guarded_deck",
    "default_serve_options",
]


def default_serve_options() -> RabitOptions:
    """The service's monitor profile: modified RABIT + headless ES.

    ``preemptive_stop=False`` because a multi-tenant service must answer
    an unsafe command with a verdict, not tear down its own call stack —
    the unsafe command is still *skipped* (precondition and trajectory
    alerts return before execution), only the exception is traded for a
    flagged response.
    """
    return RabitOptions.modified(
        use_extended_simulator=True, bypass_gui=True, preemptive_stop=False
    )


def build_guarded_deck(
    deck_name: str,
    deck_params: Dict[str, Any],
    rulebase: Optional[RuleBase],
    options: RabitOptions,
    clock: Optional[VirtualClock] = None,
) -> Tuple[Any, Rabit]:
    """Registry deck + wired monitor for one session.

    *deck_params* are the deck builder's keyword arguments; an unknown
    deck or parameter raises :class:`ValueError`.
    """
    deck = build_deck(deck_name, deck_params)
    rabit, _proxies, _trace = make_rabit(deck, options, clock, rulebase)
    return deck, rabit


class DeviceError(RuntimeError):
    """A command raised after its guard started; the session must stop.

    Usually the device itself raised mid-command.  Either way the
    monitor never ran FetchState for the half-run command, so the
    session's believed lab state may no longer match the lab.
    """


class GuardSession:
    """Isolated per-client guard context inside one service process."""

    def __init__(
        self,
        session_id: int,
        deck_name: str,
        deck_params: Optional[Dict[str, Any]] = None,
        rulebase: Optional[RuleBase] = None,
        batcher: Optional[SweepBatcher] = None,
        io_latency: float = 0.0,
        options: Optional[RabitOptions] = None,
        tenant: str = "default",
    ) -> None:
        self.session_id = session_id
        self.deck_name = deck_name
        self.deck_params = dict(deck_params or {})
        self.tenant = tenant
        self.io_latency = float(io_latency)
        self.batcher = batcher
        self.options = options or default_serve_options()
        self.deck, self.rabit = build_guarded_deck(
            deck_name, self.deck_params, rulebase, self.options
        )
        #: The journal entry of every guarded command, in order.
        self.journal: List[Dict[str, Any]] = []
        #: Sessions opened on the same deck+params share a signature, so
        #: their sweep jobs land in the same batcher geometry group …
        self._deck_signature = content_digest(
            {"deck": deck_name, "params": self.deck_params}
        )
        #: … until a session's geometry revision moves (time multiplexing
        #: swapping cuboids), after which its jobs key on the session
        #: itself — correctness over batching.
        self._initial_geometry_revision = self.rabit.model.geometry_revision

    @property
    def clock(self) -> VirtualClock:
        """This session's private virtual clock."""
        return self.rabit.clock

    def geom_key(self, frame: str, exclude: Tuple[str, ...]) -> Hashable:
        revision = self.rabit.model.geometry_revision
        if revision != self._initial_geometry_revision:
            return (f"session:{self.session_id}", revision, frame, exclude)
        return (self._deck_signature, frame, exclude)

    async def run_command(
        self,
        device_name: str,
        method: str,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Guard and execute one command; the wire-level verdict dict.

        Raises :class:`ValueError` for a command refused before anything
        ran (unknown device or method, arguments the resolver rejects)
        and :class:`DeviceError` for one that raised after its guard
        started.
        """
        kwargs = kwargs or {}
        device = self.deck.devices.get(device_name)
        if device is None:
            raise ValueError(f"unknown device {device_name!r}")
        attr = None if method.startswith("_") else getattr(device, method, None)
        if not callable(attr):
            raise ValueError(f"device {device_name!r} has no method {method!r}")
        try:
            call = resolve_action(device, method, tuple(args), kwargs)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"bad arguments for {device_name}.{method}: {exc!r}"
            ) from exc
        try:
            if call is None:
                # Unmodeled method: pass through untraced, like DeviceProxy.
                result = attr(*args, **kwargs)
                return {"ok": True, "traced": False, "result": _json_safe(result)}
            return await self._guard(
                device, method, tuple(args), call, lambda: attr(*args, **kwargs)
            )
        except Exception as exc:
            raise DeviceError(
                f"{device_name}.{method} raised {exc!r}; "
                "session stopped, lab state unknown"
            ) from exc

    async def _guard(
        self,
        device: Any,
        method: str,
        args: Tuple[Any, ...],
        call: ActionCall,
        run: Callable[[], Any],
    ) -> Dict[str, Any]:
        """Charge the clock, guard *call* around *run*, journal the verdict."""
        rabit = self.rabit

        async def execute() -> Any:
            # The stand-in for the physical lab's round-trip: real
            # wall-clock the event loop overlaps across sessions.
            if self.io_latency > 0.0:
                await asyncio.sleep(self.io_latency)
            return run()

        trajectory: Optional[Callable[[ActionCall], Any]] = None
        if self.batcher is not None and rabit.trajectory_checker is not None:
            checker = rabit.trajectory_checker

            async def trajectory(call: ActionCall) -> Optional[str]:
                job = checker.prepare_sweep(
                    call, rabit.state, rabit.model, self.options.account_held_objects
                )
                if job is None:
                    return None
                problem = await self.batcher.submit(
                    job, self.geom_key(job.frame, job.exclude)
                )
                rabit.facts.sweep = Sweep("batch", len(job.samples), problem)
                return problem

        command = Interception(rabit, rabit.clock, device, method, args, call, trace=None)
        try:
            with command:
                await rabit.guard_async(call, execute, trajectory=trajectory)
        except SafetyViolation:
            # Only reachable with preemptive_stop=True options; a service
            # session still answers with the verdict the record carries.
            pass
        finally:
            if command.record is not None:
                self.journal.append(journal_entry(len(self.journal), command.record))
        entry = self.journal[-1]
        return {
            "ok": entry["alert"] is None,
            "traced": True,
            "seq": entry["seq"],
            "t": entry["t"],
            "label": entry["label"],
            "alert": entry["alert"],
            "rule_cache": entry["rule_cache"],
        }


def _json_safe(value: Any) -> Any:
    """Coerce a pass-through result into something the wire can carry."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)
