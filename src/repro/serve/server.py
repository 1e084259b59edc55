"""The guard service: many sessions, one process, one compiled rulebase.

:class:`GuardServer` accepts asyncio stream connections (unix socket or
TCP), speaks the newline-delimited canonical-JSON protocol, and hosts
one :class:`~repro.serve.session.GuardSession` per connection.  All
sessions share the process-wide :class:`~repro.serve.batcher.SweepBatcher`
and, per tenant, one :class:`~repro.core.rulebase.RuleBase` instance —
so the compiled dispatch tables are built once per tenant revision and
read concurrently by every session (they are immutable snapshots;
:meth:`RuleBase.compiled` memoizes on revision).

Tenant overlays are extra :meth:`RuleBase.add` calls on top of the
default rulebase; each tenant's revision keys its own compiled snapshot,
and tenants that add nothing share the base instance.

``max_sessions`` is the service's only load bound.  A connection handles
one frame at a time, so each session has at most one sweep in flight and
the cap bounds the batcher's queue too.  A full service refuses new
sessions with the retryable ``session-limit`` code; every admitted
command gets the full guard, whatever the load.

Wire operations (all request/response, one JSON object per line):

- ``{"op": "ping"}``
- ``{"op": "open", "deck": "hein", "params": {…}, "tenant": "…",
  "io_latency": 0.004}`` → ``{"ok": true, "session": N}``; ``deck`` is
  a :data:`repro.lab.decks.DECKS` name and ``params`` its builder's
  keyword arguments (an unknown key is refused)
- ``{"op": "command", "device": "ur3e", "method": "go_to_home_pose",
  "args": […], "kwargs": {…}}`` → the verdict dict
- ``{"op": "journal"}`` → the session's full verdict journal
- ``{"op": "stats"}`` → service-wide counters/gauges
- ``{"op": "close"}`` → close this session/connection

Errors come back as ``{"ok": false, "error": "…"}`` on the live
connection, as does a reply too big for one frame.  Two end it after
the error frame: a frame that is not a protocol message (not UTF-8, not
a finite JSON object, oversized), and a command that raised after its
guard started, answered with ``"code": "device-error", "retryable":
false`` because the session's lab state is then unknown.
"""

from __future__ import annotations

import asyncio
import logging
import math
from typing import Any, Dict, List, Optional

from repro.core.monitor import RabitOptions
from repro.core.rulebase import Rule, RuleBase, build_default_rulebase
from repro.obs import OBS
from repro.serve.batcher import SweepBatcher
from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    encode_message,
    read_message,
)
from repro.serve.session import DeviceError, GuardSession, default_serve_options

__all__ = ["GuardServer", "SessionRejected", "TenantRulebases"]

_LOG = logging.getLogger(__name__)


class SessionRejected(ValueError):
    """A session open the service refused, with a machine-readable code.

    ``retryable`` distinguishes transient refusals (admission cap hit,
    worker draining before a respawn) from permanent ones; the wire
    frame carries both fields so :class:`~repro.serve.client.ServeClient`
    can raise the retry-eligible
    :class:`~repro.serve.client.ServeUnavailableError` for the former.
    """

    def __init__(self, message: str, code: str, retryable: bool) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable

_OBS_SESSIONS = OBS.registry.gauge(
    "serve_sessions_open", "Guard sessions currently open."
)
_OBS_COMMANDS = OBS.registry.counter(
    "serve_commands_total",
    "Commands guarded by the service, by outcome.",
    labels=("outcome",),
)
_OBS_REJECTED = OBS.registry.counter(
    "serve_sessions_rejected_total",
    "Session opens refused (admission cap or bad request).",
)


class TenantRulebases:
    """One shared rulebase (→ one compiled snapshot) per tenant.

    The base rulebase depends on which custom rules the deck's config
    enables, so the cache key is ``(custom_rule_ids, tenant)``.  Every
    session of a tenant receives the *same* :class:`RuleBase` object;
    adding an overlay rule at run time bumps that instance's revision
    and transparently recompiles for all of them.
    """

    def __init__(self) -> None:
        self._overlays: Dict[str, List[Rule]] = {}
        self._cache: Dict[Any, RuleBase] = {}

    def add_overlay(self, tenant: str, rule: Rule) -> None:
        """Register an extra rule for *tenant* (before or after sessions
        exist; existing shared instances pick it up immediately)."""
        self._overlays.setdefault(tenant, []).append(rule)
        for (key_ids, key_tenant), rulebase in self._cache.items():
            if key_tenant == tenant:
                rulebase.add(rule)

    def get(self, custom_rule_ids: tuple, tenant: str) -> RuleBase:
        key = (tuple(custom_rule_ids), tenant)
        rulebase = self._cache.get(key)
        if rulebase is None:
            rulebase = build_default_rulebase(custom_rule_ids)
            for rule in self._overlays.get(tenant, []):
                rulebase.add(rule)
            self._cache[key] = rulebase
        return rulebase


class GuardServer:
    """The long-running multi-session guard front-end."""

    def __init__(
        self,
        max_sessions: int = 32,
        default_io_latency: float = 0.0,
        options: Optional[RabitOptions] = None,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.default_io_latency = float(default_io_latency)
        self.options = options or default_serve_options()
        self.batcher = SweepBatcher()
        self.tenants = TenantRulebases()
        self.sessions: Dict[int, GuardSession] = {}
        self._next_session_id = 1
        self._server: Optional[asyncio.AbstractServer] = None
        self.stats: Dict[str, int] = {
            "sessions_opened": 0,
            "sessions_rejected": 0,
            "commands": 0,
            "alerts": 0,
            # Always 0 (every sweep is full); kept because
            # guardbench/run.py (batch_delta) reads this key.
            "degraded_commands": 0,
            "protocol_errors": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start_unix(self, path: str) -> None:
        """Listen on a unix socket at *path*."""
        self.batcher.start()
        self._server = await asyncio.start_unix_server(
            self._handle_connection, path, limit=MAX_MESSAGE_BYTES
        )

    async def start_tcp(self, host: str, port: int) -> None:
        """Listen on TCP *host*:*port*."""
        self.batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_MESSAGE_BYTES
        )

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled."""
        assert self._server is not None, "call start_unix/start_tcp first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop listening, drop sessions, and stop the batcher."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.sessions.clear()
        if OBS.enabled:
            _OBS_SESSIONS.set(0.0)
        await self.batcher.stop()

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[GuardSession] = None
        try:
            while True:
                try:
                    request = await read_message(reader)
                except ProtocolError as exc:
                    self.stats["protocol_errors"] += 1
                    await self._send(writer, {"ok": False, "error": str(exc)})
                    break
                if request is None:
                    break
                response, session, keep_open = await self._dispatch(request, session)
                await self._send(writer, response)
                if not keep_open:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if session is not None:
                self._close_session(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        try:
            frame = encode_message(payload)
        except ProtocolError as exc:
            # A reply past the frame limit (a journal of ~7,000 commands)
            # is refused, not dropped with the connection.
            frame = encode_message({"ok": False, "error": f"reply not sent: {exc}"})
        writer.write(frame)
        await writer.drain()

    async def _dispatch(
        self, request: dict, session: Optional[GuardSession]
    ) -> tuple:
        """(response, session, keep_connection_open) for one request."""
        op = request.get("op")
        if op == "ping":
            return {"ok": True, "op": "ping"}, session, True
        if op == "open":
            if session is not None:
                return (
                    {"ok": False, "error": "session already open on this connection"},
                    session,
                    True,
                )
            try:
                session = self._open_session(request)
            except (KeyError, ValueError, TypeError) as exc:
                self.stats["sessions_rejected"] += 1
                if OBS.enabled:
                    _OBS_REJECTED.inc(1)
                refusal: Dict[str, Any] = {"ok": False, "error": str(exc)}
                if isinstance(exc, SessionRejected):
                    refusal["code"] = exc.code
                    refusal["retryable"] = exc.retryable
                return refusal, None, True
            return (
                {"ok": True, "session": session.session_id, "deck": session.deck_name},
                session,
                True,
            )
        if op == "command":
            if session is None:
                return {"ok": False, "error": "no session open (send op=open first)"}, None, True
            args = request.get("args", [])
            kwargs = request.get("kwargs", {})
            if not isinstance(args, list) or not isinstance(kwargs, dict):
                return (
                    {"ok": False, "error": "args must be an array, kwargs an object"},
                    session,
                    True,
                )
            try:
                response = await session.run_command(
                    str(request.get("device", "")),
                    str(request.get("method", "")),
                    tuple(args),
                    kwargs,
                )
            except ValueError as exc:
                return {"ok": False, "error": str(exc)}, session, True
            except DeviceError as exc:
                # The client gets the message; the traceback stays here.
                _LOG.warning("session %d stopped: %s", session.session_id, exc, exc_info=exc)
                refusal = {
                    "ok": False,
                    "error": str(exc),
                    "code": "device-error",
                    "retryable": False,
                }
                return refusal, session, False
            self.stats["commands"] += 1
            if response.get("alert") is not None:
                self.stats["alerts"] += 1
            if OBS.enabled:
                _OBS_COMMANDS.inc(
                    1, outcome="alert" if response.get("alert") else "allowed"
                )
            return response, session, True
        if op == "journal":
            if session is None:
                return {"ok": False, "error": "no session open"}, None, True
            return {"ok": True, "journal": session.journal}, session, True
        if op == "stats":
            return {"ok": True, "stats": self.snapshot()}, session, True
        if op == "close":
            return {"ok": True, "op": "close"}, session, False
        return {"ok": False, "error": f"unknown op {op!r}"}, session, True

    # -- sessions ----------------------------------------------------------

    def _open_session(self, request: dict) -> GuardSession:
        if len(self.sessions) >= self.max_sessions:
            raise SessionRejected(
                f"session limit reached ({self.max_sessions}); retry later",
                code="session-limit",
                retryable=True,
            )
        deck_name = str(request.get("deck", "hein"))
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise TypeError("params must be an object")
        tenant = str(request.get("tenant", "default"))
        latency = request.get("io_latency", self.default_io_latency)
        try:
            io_latency = float(latency)
            valid = math.isfinite(io_latency) and io_latency >= 0
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            raise ValueError(f"io_latency must be a finite number >= 0, got {latency!r}")

        # The deck registry refuses an unknown deck or parameter here
        # (ValueError), before the session takes an id.
        session = GuardSession(
            session_id=self._next_session_id,
            deck_name=deck_name,
            deck_params=params,
            rulebase=None,  # placeholder; replaced below with the shared one
            batcher=self.batcher,
            io_latency=io_latency,
            options=self.options,
            tenant=tenant,
        )
        # Swap in the tenant-shared rulebase now that the model (and its
        # custom-rule ids) exists.  The monitor holds no derived rulebase
        # state beyond cached verdicts, which key on the rulebase
        # revision — and this session has guarded nothing yet.
        shared = self.tenants.get(
            tuple(session.rabit.model.custom_rule_ids), tenant
        )
        session.rabit.rulebase = shared
        self._next_session_id += 1
        self.sessions[session.session_id] = session
        self.stats["sessions_opened"] += 1
        if OBS.enabled:
            _OBS_SESSIONS.set(float(len(self.sessions)))
        return session

    def _close_session(self, session: GuardSession) -> None:
        self.sessions.pop(session.session_id, None)
        if OBS.enabled:
            _OBS_SESSIONS.set(float(len(self.sessions)))

    # -- stats -------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Service-wide operational counters and gauges."""
        return {
            "sessions_open": len(self.sessions),
            "max_sessions": self.max_sessions,
            "queue_depth": self.batcher.queue_depth,
            **self.stats,
            "sweeps": dict(self.batcher.stats),
        }
