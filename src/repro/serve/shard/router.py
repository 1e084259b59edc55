"""The shard front-end: route ``open``, then pipe bytes.

The router owns the public endpoint (unix socket or TCP).  It parses a
connection's frames only until it knows where the session belongs —
answering ``ping`` and merged ``stats`` itself — and on ``open`` it
resolves the worker (pin > deterministic key hash > round-robin),
forwards the open frame, and collapses into a dumb byte pipe.  After the
handoff the router adds no parsing, no re-framing, and no reordering,
which is why a sharded session's journal is byte-identical to the
single-process service: the worker *is* the single-process service and
the router never touches its frames.

When the target worker is down (crashed, mid-respawn, or draining at
connect time) the router answers the ``open`` itself with a
``retryable: true`` refusal (code ``worker-unavailable``) instead of
letting the connect error leak — the client's retry policy already knows
what to do with it, and the session key will land on the same worker
once the supervisor has respawned it.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple

from repro.serve.protocol import (
    MAX_MESSAGE_BYTES,
    ProtocolError,
    encode_message,
    read_message,
)
from repro.serve.shard.routing import shard_for

__all__ = ["ShardRouter"]

_PIPE_CHUNK = 1 << 16


class ShardRouter:
    """Public listener that routes sessions onto per-worker sockets."""

    def __init__(self, supervisor: Any) -> None:
        #: The owning :class:`~repro.serve.shard.supervisor.ShardService`;
        #: the router asks it for worker socket paths, liveness, and the
        #: merged stats view.
        self.supervisor = supervisor
        self._server: Optional[asyncio.AbstractServer] = None
        self._round_robin = 0
        self.stats: Dict[str, int] = {
            "connections": 0,
            "sessions_routed": 0,
            "rejected_unavailable": 0,
            "protocol_errors": 0,
        }
        self.routed_per_worker: Dict[int, int] = {}

    # -- lifecycle ---------------------------------------------------------

    async def start_unix(self, path: str) -> None:
        self._server = await asyncio.start_unix_server(
            self._handle, path, limit=MAX_MESSAGE_BYTES
        )

    async def start_tcp(self, host: str, port: int) -> int:
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=MAX_MESSAGE_BYTES
        )
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- routing -----------------------------------------------------------

    def resolve_worker(self, request: dict) -> int:
        """The worker index an ``open`` request routes to."""
        workers = self.supervisor.worker_count
        if "worker" in request:
            index = int(request["worker"])
            if not 0 <= index < workers:
                raise ValueError(
                    f"worker {index} out of range (service has {workers})"
                )
            return index
        if "key" in request:
            return shard_for(
                str(request.get("tenant", "default")), str(request["key"]), workers
            )
        index = self._round_robin % workers
        self._round_robin += 1
        return index

    # -- connection handling -----------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats["connections"] += 1
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
                op = request.get("op")
                if op == "ping":
                    await self._send(writer, {"ok": True, "op": "ping"})
                elif op == "stats":
                    stats = await self.supervisor.merged_stats()
                    await self._send(writer, {"ok": True, "stats": stats})
                elif op == "close":
                    await self._send(writer, {"ok": True, "op": "close"})
                    break
                elif op == "open":
                    handed_off = await self._route_session(request, reader, writer)
                    if handed_off:
                        return  # the pipe owns (and closed) both ends
                else:
                    await self._send(
                        writer,
                        {"ok": False, "error": f"unknown op {op!r} (no session open)"},
                    )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass

    async def _send(self, writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write(encode_message(payload))
        await writer.drain()

    async def _route_session(
        self,
        request: dict,
        client_reader: asyncio.StreamReader,
        client_writer: asyncio.StreamWriter,
    ) -> bool:
        """Hand the connection to its worker; True once piping has run."""
        try:
            index = self.resolve_worker(request)
        except (ValueError, TypeError) as exc:
            await self._send(client_writer, {"ok": False, "error": str(exc)})
            return False
        try:
            upstream = await self.supervisor.connect_worker(index)
        except (ConnectionError, OSError) as exc:
            self.stats["rejected_unavailable"] += 1
            await self._send(
                client_writer,
                {
                    "ok": False,
                    "error": (
                        f"worker {index} unavailable ({exc.__class__.__name__}); "
                        "retry shortly"
                    ),
                    "code": "worker-unavailable",
                    "retryable": True,
                },
            )
            return False
        worker_reader, worker_writer = upstream
        self.stats["sessions_routed"] += 1
        self.routed_per_worker[index] = self.routed_per_worker.get(index, 0) + 1
        worker_writer.write(encode_message(request))
        try:
            await worker_writer.drain()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(
            self._pipe(client_reader, worker_writer),
            self._pipe(worker_reader, client_writer),
        )
        return True

    async def _pipe(
        self, src: asyncio.StreamReader, dst: asyncio.StreamWriter
    ) -> None:
        """Copy bytes until EOF/error, then close *dst* to unblock its peer."""
        try:
            while True:
                chunk = await src.read(_PIPE_CHUNK)
                if not chunk:
                    break
                dst.write(chunk)
                await dst.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            # Shut the socket down before closing it: a worker forked
            # while this connection was open holds a copy of it, and
            # close() alone would leave the peer waiting for an EOF that
            # never comes (a client hung on a crashed worker's session).
            try:
                if dst.can_write_eof():
                    dst.write_eof()
            except (ConnectionError, OSError):
                pass
            dst.close()
            try:
                await dst.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - teardown race
                pass
