"""The thin asyncio client for the guard service.

One :class:`ServeClient` wraps one stream connection (unix socket or
TCP) and one session.  Requests and responses are the newline-delimited
canonical-JSON frames of :mod:`repro.serve.protocol`; connect attempts
are wrapped in :func:`repro.serve.retry.retrying` so a client racing the
server's startup backs off instead of failing instantly.

Typical use::

    client = await ServeClient.open_unix("/tmp/rabit.sock")
    await client.open_session(deck="hein", io_latency=0.004)
    verdict = await client.command("ur3e", "go_to_home_pose")
    journal = await client.journal()
    await client.close()
"""

from __future__ import annotations

import asyncio
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    encode_message,
    read_message,
)
from repro.serve.retry import RetryPolicy, retrying

__all__ = [
    "ServeClient",
    "ServeConnectionLost",
    "ServeError",
    "ServeSessionLost",
    "ServeUnavailableError",
]


class ServeError(Exception):
    """The service answered ``ok: false`` (or hung up mid-request)."""


class ServeConnectionLost(ServeError, ConnectionError):
    """The connection died where replaying the request is safe.

    Raised for a request frame that never left, and for a lost answer to
    any request but a command (open, ping, stats, journal): none of them
    moves the lab, so replaying against a fresh connection is safe and
    expected.  Subclassing :class:`ConnectionError` makes it
    retry-eligible under the default :class:`~repro.serve.retry.RetryPolicy`
    without any policy change.
    """


class ServeSessionLost(ServeError):
    """The session ended with its lab state unknown: stop, do not replay.

    Raised when the connection died after a command frame left (the
    worker may have executed it) and when the service answered
    ``device-error`` (the command raised after its guard started).  Not
    a :class:`ConnectionError`, so no retry policy replays it.
    """


class ServeUnavailableError(ServeError, ConnectionError):
    """The service refused the request but said to retry (``retryable: true``).

    Carries the server's machine-readable ``code`` (e.g.
    ``worker-unavailable`` while a crashed shard worker respawns,
    ``draining`` during a graceful drain, ``session-limit`` at the
    admission cap).  Subclasses :class:`ConnectionError` so the existing
    retry policy treats it as the transient it is.
    """

    def __init__(self, message: str, code: str = "unavailable") -> None:
        super().__init__(message)
        self.code = code


#: Unix-socket connects surface a missing socket file as
#: ``FileNotFoundError`` rather than ``ConnectionRefusedError``; for a
#: client racing server startup the two are the same transient.
_CONNECT_POLICY = RetryPolicy(
    retry_on=(ConnectionError, TimeoutError, FileNotFoundError)
)


class ServeClient:
    """One connection + one session against a :class:`GuardServer`."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self.session_id: Optional[int] = None

    # -- connecting --------------------------------------------------------

    @classmethod
    async def open_unix(
        cls, path: str, retry: Optional[RetryPolicy] = None
    ) -> "ServeClient":
        """Connect to a unix-socket service, retrying transient failures."""
        policy = retry or _CONNECT_POLICY

        @retrying(policy)
        async def connect() -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            return await asyncio.open_unix_connection(path, limit=MAX_MESSAGE_BYTES)

        reader, writer = await connect()
        return cls(reader, writer)

    @classmethod
    async def open_tcp(
        cls, host: str, port: int, retry: Optional[RetryPolicy] = None
    ) -> "ServeClient":
        """Connect to a TCP service, retrying transient failures."""
        policy = retry or replace(
            _CONNECT_POLICY, retry_on=(ConnectionError, TimeoutError)
        )

        @retrying(policy)
        async def connect() -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
            return await asyncio.open_connection(host, port, limit=MAX_MESSAGE_BYTES)

        reader, writer = await connect()
        return cls(reader, writer)

    # -- request/response --------------------------------------------------

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One round-trip; raises :class:`ServeError` on ``ok: false``.

        A connection that dies mid-request (worker drain or crash)
        raises :class:`ServeConnectionLost` — retry-eligible — rather
        than a bare :class:`ConnectionResetError`, unless the request was
        a command that left: then :class:`ServeSessionLost`, as for a
        ``device-error`` answer.  A refusal stamped ``retryable: true``
        raises :class:`ServeUnavailableError`.
        """
        if self._reader.at_eof():
            # The service hung up before this frame: it cannot have run.
            raise ServeConnectionLost("connection closed by the service before the request")
        try:
            self._writer.write(encode_message(payload))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ServeConnectionLost(
                f"connection lost while sending request: {exc}"
            ) from exc
        # Once a command frame has left, the service may have run it.
        lost = (
            ServeSessionLost if payload.get("op") == "command" else ServeConnectionLost
        )
        try:
            response = await read_message(self._reader)
        except ProtocolError as exc:
            if lost is ServeSessionLost:
                raise lost(f"malformed response to a command: {exc}") from exc
            raise ServeError(f"malformed response: {exc}") from exc
        except (ConnectionError, OSError, asyncio.IncompleteReadError) as exc:
            raise lost(f"connection lost awaiting response: {exc}") from exc
        if response is None:
            raise lost("connection closed by the service")
        if not response.get("ok", False) and "error" in response:
            if response.get("retryable"):
                raise ServeUnavailableError(
                    response["error"], code=str(response.get("code", "unavailable"))
                )
            if response.get("code") == "device-error":
                raise ServeSessionLost(response["error"])
            raise ServeError(response["error"])
        return response

    # -- operations --------------------------------------------------------

    async def ping(self) -> None:
        """Liveness round-trip."""
        await self.request({"op": "ping"})

    async def open_session(
        self,
        deck: str = "hein",
        params: Optional[Dict[str, Any]] = None,
        tenant: str = "default",
        io_latency: Optional[float] = None,
        key: Optional[str] = None,
        worker: Optional[int] = None,
    ) -> int:
        """Open this connection's session; returns the session id.

        Against a sharded service, *key* routes the session
        deterministically (``shard_for(tenant, key) % N``) and *worker*
        pins it to an explicit worker index; a single-process service
        ignores both.
        """
        payload: Dict[str, Any] = {"op": "open", "deck": deck, "tenant": tenant}
        if params:
            payload["params"] = params
        if io_latency is not None:
            payload["io_latency"] = io_latency
        if key is not None:
            payload["key"] = key
        if worker is not None:
            payload["worker"] = worker
        response = await self.request(payload)
        self.session_id = int(response["session"])
        return self.session_id

    async def command(
        self,
        device: str,
        method: str,
        *args: Any,
        **kwargs: Any,
    ) -> Dict[str, Any]:
        """Guard one device command; returns the verdict dict.

        Unlike the in-process proxy, an alert does not raise — the
        verdict comes back with ``ok`` false and the ``alert`` filled in
        for the caller to inspect.  A refused command raises
        :class:`ServeError` and leaves the session usable.  A command
        that raised on the device, or whose answer was lost after it was
        sent, raises :class:`ServeSessionLost`: the lab state is
        unknown, so stop rather than replay it.
        """
        return await self.request(
            {
                "op": "command",
                "device": device,
                "method": method,
                "args": list(args),
                "kwargs": kwargs,
            }
        )

    async def journal(self) -> List[Dict[str, Any]]:
        """The session's verdict journal so far."""
        response = await self.request({"op": "journal"})
        return response["journal"]

    async def stats(self) -> Dict[str, Any]:
        """Service-wide counters/gauges."""
        response = await self.request({"op": "stats"})
        return response["stats"]

    async def close(self) -> None:
        """Close the session and the connection."""
        try:
            await self.request({"op": "close"})
        except (ServeError, ConnectionError):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
