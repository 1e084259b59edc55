"""Spans around the guard's public functions, for the traced run.

The traced run is separate from the timed run.  :func:`install` wraps the
public functions of each layer from here, from the benchmark's own files,
so the program itself stays untouched; :func:`summarize` and
:func:`layer_metrics` turn the recorded spans into per-layer numbers.

A span is ``[name, start, end, parent, attrs]``: *parent* is the index
of the enclosing span (``-1`` for a root) and *attrs* a dict or
``None``.  Spans stay in memory until the run ends.  The enclosing span
is tracked in a context variable, so concurrent asyncio sessions nest
their spans per task.  A span's self time is its duration minus the
durations of its children.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

perf = time.perf_counter

#: Root span names: one per guarded command (benchmark-owned).
COMMAND = "command"
#: Server-side root: one request, from its line arriving to its response
#: encoded.  Its self time is dispatch work no wrapped layer covers.
HANDLE = "serve.handle"
EXECUTE = "devices.execute"
GUARD = "core.monitor.guard"
#: Roots the serve batcher's drainer task opens outside any request.
DRAINER = frozenset(
    {
        "geometry.batch.first_containing",
        "geometry.batch.first_containing_many",
        "simulator.extended.finish_sweep",
        "simulator.extended.build_sweep_engines",
    }
)
PLANS = ("kinematics.plan_move", "kinematics.plan_posture")
GEOMETRY = ("geometry.batch.first_containing", "geometry.batch.first_containing_many")


class SpanRecorder:
    """In-memory span store with per-task nesting."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "guardbench_span", default=-1
        )
        self._handle: contextvars.ContextVar = contextvars.ContextVar(
            "guardbench_handle", default=None
        )

    def open(self, name: str, start: Optional[float] = None, attrs: Optional[dict] = None):
        idx = len(self.spans)
        self.spans.append([name, perf() if start is None else start, None, self._current.get(), attrs])
        return idx, self._current.set(idx)

    def close(self, idx: int, token: Any, end: Optional[float] = None) -> None:
        self.spans[idx][2] = perf() if end is None else end
        self._current.reset(token)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx, token = self.open(name)
        try:
            yield
        finally:
            self.close(idx, token)


# -- wrappers -----------------------------------------------------------------


def _wrap(
    recorder: SpanRecorder,
    fn: Callable,
    name: str,
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    """*fn* inside a span; ``after(args, result, before(args))`` -> attrs."""
    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            mark = before(args) if before else None
            idx, token = recorder.open(name)
            try:
                result = await fn(*args, **kwargs)
            finally:
                recorder.close(idx, token)
            if after:
                recorder.spans[idx][4] = after(args, result, mark)
            return result

        return traced_async

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        mark = before(args) if before else None
        idx, token = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(idx, token)
        if after:
            recorder.spans[idx][4] = after(args, result, mark)
        return result

    return traced


def _guard_wrappers(recorder: SpanRecorder, guard: Callable, guard_async: Callable):
    """``Rabit.guard``/``guard_async`` with the execute callable in its own span."""

    @functools.wraps(guard)
    def traced_guard(self: Any, call: Any, execute: Callable) -> Any:
        def traced_execute() -> Any:
            with recorder.span(EXECUTE):
                return execute()

        with recorder.span(GUARD):
            return guard(self, call, traced_execute)

    @functools.wraps(guard_async)
    async def traced_guard_async(self: Any, call: Any, execute: Callable, trajectory: Any = None) -> Any:
        async def traced_execute() -> Any:
            with recorder.span(EXECUTE):
                return await execute()

        with recorder.span(GUARD):
            return await guard_async(self, call, traced_execute, trajectory)

    return traced_guard, traced_guard_async


class _ArrivalReader:
    """Stream reader proxy noting when a frame's line arrived."""

    def __init__(self, reader: Any) -> None:
        self._reader = reader
        self.arrived: Optional[float] = None
        self.size = 0

    async def readline(self) -> bytes:
        line = await self._reader.readline()
        self.arrived = perf()
        self.size = len(line)
        return line


def _protocol_wrappers(recorder: SpanRecorder, encode: Callable, read: Callable, server: bool):
    """Frame encode/decode spans; on the server, also the request span.

    ``read_message`` mostly waits for the peer, so only the time from the
    line's arrival to the parsed payload counts as decoding."""

    async def traced_read(reader: Any) -> Any:
        timed = _ArrivalReader(reader)
        payload = await read(timed)
        if payload is None or timed.arrived is None:
            return payload
        end = perf()
        if server:
            recorder._handle.set(
                recorder.open(HANDLE, start=timed.arrived, attrs={"op": payload.get("op")})
            )
        idx, token = recorder.open("serve.protocol.decode", start=timed.arrived)
        recorder.close(idx, token, end=end)
        recorder.spans[idx][4] = {"bytes": timed.size}
        return payload

    def traced_encode(payload: Any) -> bytes:
        idx, token = recorder.open("serve.protocol.encode")
        try:
            data = encode(payload)
        finally:
            recorder.close(idx, token)
        recorder.spans[idx][4] = {"bytes": len(data)}
        handle = recorder._handle.get()
        if server and handle is not None:
            recorder._handle.set(None)
            recorder.close(*handle)
        return data

    return traced_encode, traced_read


def install(recorder: SpanRecorder, side: str) -> Callable[[], None]:
    """Wrap the layers one process runs; returns the uninstaller.

    *side* is ``"inproc"`` (the monitor runs in this process),
    ``"server"`` (the guard service child) or ``"client"`` (the
    benchmark driving a service: protocol framing only).
    """
    from repro.core import interceptor
    from repro.core.actions import TransitionTable
    from repro.core.monitor import Rabit
    from repro.core.rulebase import CompiledRuleBase
    from repro.core.rulecache import RuleVerdictCache
    from repro.core.state import LabState
    from repro.devices import Device  # the package imports every device class
    from repro.geometry.batch import BatchCollisionEngine
    from repro.kinematics import arm
    from repro.serve import batcher, client, protocol, server, session
    from repro.simulator import extended

    saved: List[tuple] = []

    def patch(owner: Any, attr: str, replacement: Callable) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(owner: Any, attr: str, name: str, **hooks: Any) -> None:
        patch(owner, attr, _wrap(recorder, getattr(owner, attr), name, **hooks))

    if side == "client":
        encode, read = _protocol_wrappers(recorder, protocol.encode_message, protocol.read_message, False)
        patch(client, "encode_message", encode)
        patch(client, "read_message", read)
        return lambda: _restore(saved)

    for module in (interceptor, session):
        wrap(module, "resolve_action", "core.interceptor.resolve_action")
    guard, guard_async = _guard_wrappers(recorder, Rabit.guard, Rabit.guard_async)
    patch(Rabit, "guard", guard)
    patch(Rabit, "guard_async", guard_async)
    wrap(RuleVerdictCache, "lookup", "core.rulecache.lookup",
         before=lambda a: a[0].hits,
         after=lambda a, _r, mark: {"hit": a[0].hits - mark})
    wrap(RuleVerdictCache, "store", "core.rulecache.store")
    wrap(CompiledRuleBase, "check_action", "core.rulebase.check_action",
         before=lambda a: a[0].rules_considered,
         after=lambda a, _r, mark: {"rules": a[0].rules_considered - mark})
    wrap(TransitionTable, "expected_state", "core.actions.expected_state")
    wrap(LabState, "diff_observable", "core.state.diff_observable")
    wrap(LabState, "merge_observed", "core.state.merge_observed")
    for cls in _device_classes(Device):
        if "status" in cls.__dict__:
            wrap(cls, "status", "devices.status")
    wrap(extended.ExtendedSimulator, "validate_trajectory", "simulator.extended.validate_trajectory")
    wrap(extended.ExtendedSimulator, "prepare_sweep", "simulator.extended.prepare_sweep")
    for module in (extended, batcher):
        wrap(module, "finish_sweep", "simulator.extended.finish_sweep")
        wrap(module, "build_sweep_engines", "simulator.extended.build_sweep_engines")
    wrap(arm.ArmKinematics, "plan_move", "kinematics.plan_move")
    wrap(arm.ArmKinematics, "plan_posture", "kinematics.plan_posture")
    wrap(arm, "solve_position_ik", "kinematics.solve_position_ik",
         after=lambda a, result, _m: {"iterations": result.iterations})
    wrap(BatchCollisionEngine, "first_containing", "geometry.batch.first_containing",
         after=lambda a, _r, _m: {"points": len(a[1])})
    wrap(BatchCollisionEngine, "first_containing_many", "geometry.batch.first_containing_many",
         after=lambda a, _r, _m: {"points": sum(len(p) for p in a[1])})
    if side == "server":
        encode, read = _protocol_wrappers(recorder, protocol.encode_message, protocol.read_message, True)
        patch(server, "encode_message", encode)
        patch(server, "read_message", read)
        wrap(session.GuardSession, "run_command", "serve.session.run_command")
        wrap(session, "build_guarded_deck", "serve.session.build_guarded_deck")
        wrap(batcher.SweepBatcher, "submit", "serve.batcher.submit")
    return lambda: _restore(saved)


def _device_classes(root: type) -> List[type]:
    found, stack = [], [root]
    while stack:
        cls = stack.pop()
        found.append(cls)
        stack.extend(cls.__subclasses__())
    return found


def _restore(saved: List[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# -- aggregation --------------------------------------------------------------


def roots(spans: Sequence[list]) -> List[int]:
    """Per span, the index of its root: the command (or request) it belongs to."""
    out = list(range(len(spans)))
    for i, span in enumerate(spans):
        if span[3] >= 0:
            out[i] = out[span[3]]
    return out


def summarize(spans: Sequence[list], window: Optional[tuple] = None) -> Dict[str, float]:
    """Sums over the spans that belong to guarded commands.

    Counted are spans under a ``command`` root, under a ``serve.handle``
    root of a command request, and the drainer's detached roots, whose
    root starts inside *window* (``(start, end)``, or everything).  Keys
    are ``<name>.n`` (count), ``<name>.dur`` and ``<name>.self``
    (seconds), ``<name>.<attr>`` (attribute sums), plus the
    ``plan_guard``/``plan_execute``/``fetch_state``/``geometry_outer``
    splits and the ``drainer.dur`` total of the drainer's roots.
    """
    n = len(spans)
    dur = [None if s[2] is None else s[2] - s[1] for s in spans]
    children = [0.0] * n
    root = roots(spans)
    under_execute = [False] * n
    for i, (_name, _start, _end, parent, _attrs) in enumerate(spans):
        if parent >= 0:
            under_execute[i] = under_execute[parent] or spans[parent][0] == EXECUTE
            if dur[i] is not None:
                children[parent] += dur[i]

    def counted(r: int) -> bool:
        name, start, _end, parent, attrs = spans[r]
        if window is not None and not window[0] <= start <= window[1]:
            return False
        if name == COMMAND or name in DRAINER:
            return True
        return name == HANDLE and attrs is not None and attrs.get("op") == "command"

    keep = {r: counted(r) for r in set(root)}
    sums: Dict[str, float] = defaultdict(float)
    for i, (name, _start, _end, parent, attrs) in enumerate(spans):
        if dur[i] is None or not keep[root[i]]:
            continue
        sums[f"{name}.n"] += 1
        sums[f"{name}.dur"] += dur[i]
        sums[f"{name}.self"] += dur[i] - children[i]
        for key, value in (attrs or {}).items():
            if isinstance(value, (bool, int, float)):
                sums[f"{name}.{key}"] += value
        parent_name = spans[parent][0] if parent >= 0 else None
        if parent_name is None and name in DRAINER:
            sums["drainer.dur"] += dur[i]
        if name in PLANS:
            sums["plan_execute" if under_execute[i] else "plan_guard"] += dur[i]
        elif name == "devices.status" and parent_name == GUARD:
            sums["fetch_state.n"] += 1
            sums["fetch_state.dur"] += dur[i]
        elif name in GEOMETRY and parent_name not in GEOMETRY:
            sums["geometry_outer.n"] += 1
            sums["geometry_outer.points"] += (attrs or {}).get("points", 0)
    return dict(sums)


def mean_duration(spans: Sequence[list], name: str, window: tuple) -> float:
    """Mean seconds of the finished *name* spans starting inside *window*."""
    durations = [
        end - start
        for span_name, start, end, _parent, _attrs in spans
        if span_name == name and end is not None and window[0] <= start <= window[1]
    ]
    return sum(durations) / len(durations) if durations else 0.0


def merge(*summaries: Dict[str, float]) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for summary in summaries:
        for key, value in summary.items():
            out[key] += value
    return dict(out)


def layer_of(name: str) -> str:
    """The module a span name belongs to (``core.monitor.guard`` -> ``core.monitor``)."""
    if name == COMMAND:
        return "bench"
    if name == HANDLE:
        return "serve.server"
    return name.rsplit(".", 1)[0]


def self_by_layer(sums: Dict[str, float], hop_s: float = 0.0) -> Dict[str, float]:
    """Self seconds per layer module.

    For a service run the client's command span also covers the socket
    hop and the server's request span; those are taken out of it."""
    out: Dict[str, float] = defaultdict(float)
    for key, value in sums.items():
        if key.endswith(".self"):
            out[layer_of(key[: -len(".self")])] += value
    if hop_s:
        out["bench"] -= hop_s + sums.get(f"{HANDLE}.dur", 0.0)
        out["serve.socket_hop"] = hop_s
    return dict(out)


#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "kinematics.plan_guard_us": ("us", "lower"),
    "kinematics.plan_execute_us": ("us", "lower"),
    "kinematics.ik_solves_per_plan": ("count", "lower"),
    "kinematics.ik_iterations_per_solve": ("count", "lower"),
    "simulator.extended.sweep_us": ("us", "lower"),
    "simulator.extended.engine_builds": ("1/session", "lower"),
    "simulator.extended.engine_build_us": ("us", "lower"),
    "geometry.batch.contain_us": ("us", "lower"),
    "geometry.batch.points_per_call": ("count", "higher"),
    "core.rulebase.check_us": ("us", "lower"),
    "core.rulebase.rules_visited_per_command": ("count", "lower"),
    "core.rulecache.hit_ratio": ("ratio", "higher"),
    "core.rulecache.lookup_us": ("us", "lower"),
    "core.monitor.fetch_state_us": ("us", "lower"),
    "devices.status_calls_per_command": ("count", "lower"),
    "core.state.compare_us": ("us", "lower"),
    "core.actions.expected_state_us": ("us", "lower"),
    "core.interceptor.resolve_us": ("us", "lower"),
    "core.monitor.self_us": ("us", "lower"),
    "core.monitor.blocked_ratio": ("ratio", "lower"),
    "devices.execute_us": ("us", "lower"),
    "serve.protocol.encode_us": ("us", "lower"),
    "serve.protocol.decode_us": ("us", "lower"),
    "serve.protocol.bytes_per_frame": ("bytes", "lower"),
    "serve.session.run_us": ("us", "lower"),
    "serve.session.open_us": ("us", "lower"),
    "serve.batcher.wait_us": ("us", "lower"),
    "serve.batcher.batch_size_mean": ("count", "higher"),
    "serve.batcher.degraded": ("count", "lower"),
    "serve.socket_hop_us": ("us", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.unattributed_pct": ("%", "lower"),
}


def layer_metrics(
    sums: Dict[str, float],
    commands: int,
    sessions: int,
    robot_moves: int,
    blocked: int,
    command_s: float,
    hop_s: float = 0.0,
    open_s: float = 0.0,
    batch: Optional[Dict[str, float]] = None,
    overhead_pct: float = 0.0,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run.

    *command_s* is the summed duration of the command roots (the
    caller-side latency).  Service runs also pass *hop_s*, the summed
    socket hop; *open_s*, the mean service-side deck build per session
    open; and *batch*, the batcher's counter deltas over the window.
    """
    us = 1e6

    def get(key: str) -> float:
        return sums.get(key, 0.0)

    def per(value: float, base: float) -> float:
        return value / base if base else 0.0

    def per_command(*keys: str) -> float:
        return per(sum(get(k) for k in keys), commands) * us

    plans = get("kinematics.plan_move.n") + get("kinematics.plan_posture.n")
    solves = get("kinematics.solve_position_ik.n")
    lookups = get("core.rulecache.lookup.n")
    frames = get("serve.protocol.encode.n") + get("serve.protocol.decode.n")
    batch = batch or {}
    submits = get("serve.batcher.submit.n")
    return {
        "kinematics.plan_guard_us": per_command("plan_guard"),
        "kinematics.plan_execute_us": per_command("plan_execute"),
        "kinematics.ik_solves_per_plan": per(solves, plans),
        "kinematics.ik_iterations_per_solve": per(get("kinematics.solve_position_ik.iterations"), solves),
        "simulator.extended.sweep_us": per(
            get("simulator.extended.validate_trajectory.self")
            + get("simulator.extended.prepare_sweep.self")
            + get("simulator.extended.finish_sweep.self"),
            robot_moves,
        ) * us,
        "simulator.extended.engine_builds": per(get("simulator.extended.build_sweep_engines.n"), sessions),
        "simulator.extended.engine_build_us": per_command("simulator.extended.build_sweep_engines.dur"),
        "geometry.batch.contain_us": per_command(*(f"{g}.self" for g in GEOMETRY)),
        "geometry.batch.points_per_call": per(get("geometry_outer.points"), get("geometry_outer.n")),
        "core.rulebase.check_us": per_command("core.rulebase.check_action.dur"),
        "core.rulebase.rules_visited_per_command": per(get("core.rulebase.check_action.rules"), commands),
        "core.rulecache.hit_ratio": per(get("core.rulecache.lookup.hit"), lookups),
        "core.rulecache.lookup_us": per_command("core.rulecache.lookup.dur", "core.rulecache.store.dur"),
        "core.monitor.fetch_state_us": per_command("fetch_state.dur"),
        "devices.status_calls_per_command": per(get("fetch_state.n"), commands),
        "core.state.compare_us": per_command(
            "core.state.diff_observable.dur", "core.state.merge_observed.dur"
        ),
        "core.actions.expected_state_us": per_command("core.actions.expected_state.dur"),
        "core.interceptor.resolve_us": per_command("core.interceptor.resolve_action.dur"),
        "core.monitor.self_us": per_command(f"{GUARD}.self"),
        "core.monitor.blocked_ratio": per(blocked, commands),
        "devices.execute_us": per_command(f"{EXECUTE}.dur"),
        "serve.protocol.encode_us": per_command("serve.protocol.encode.dur"),
        "serve.protocol.decode_us": per_command("serve.protocol.decode.dur"),
        "serve.protocol.bytes_per_frame": per(
            get("serve.protocol.encode.bytes") + get("serve.protocol.decode.bytes"), frames
        ),
        "serve.session.run_us": per_command("serve.session.run_command.dur"),
        "serve.session.open_us": open_s * us,
        "serve.batcher.wait_us": per(get("serve.batcher.submit.dur") - get("drainer.dur"), submits) * us,
        "serve.batcher.batch_size_mean": per(batch.get("batched", 0.0), batch.get("batches", 0.0)),
        "serve.batcher.degraded": batch.get("degraded", 0.0),
        "serve.socket_hop_us": per(hop_s, commands) * us,
        "bench.trace_overhead_pct": overhead_pct,
        # In process: the command root's self time.  Served: the client
        # root's self time is the hop plus the server's request span, so
        # what is left is that request span's own (dispatch) time.
        "bench.unattributed_pct": 100.0 * per(
            get(f"{COMMAND}.self") - hop_s - get(f"{HANDLE}.dur") + get(f"{HANDLE}.self"),
            command_s,
        ),
    }
