"""One shard worker: a full :class:`GuardServer` in a forked process.

Each worker is the entire single-process guard service — its own asyncio
event loop, its own :class:`~repro.serve.batcher.SweepBatcher`, its own
tenant rulebase cache — listening on a private unix socket the router
proxies sessions into.  Because a worker *is* the single-process
service, every per-session guarantee (journal byte-identity to the
in-process path, the full sweep for every command, the session cap as
the only load bound, a stopped session on a device error) holds per
shard by construction; sharding adds capacity without touching verdict
semantics.

On top of the session protocol, a worker answers three **control ops**
(the supervisor's control channel, spoken over the same socket by
connections that never open a session):

- ``control_stats`` → ``{"index", "draining", "stats", "obs"}`` — the
  worker's :meth:`snapshot` plus its obs registry snapshot (``null``
  when observability is off); the supervisor merges these in
  worker-index order.
- ``control_drain`` → stop admitting sessions (opens are refused with
  the retryable ``draining`` code) and exit once the last session
  closes — the graceful half of drain-and-respawn.
- ``control_shutdown`` → exit now, dropping open sessions (a client
  waiting on a command sees :class:`~repro.serve.client.ServeSessionLost`,
  any other request a retry-eligible connection loss).

The fork-only discipline mirrors :mod:`repro.parallel`: workers inherit
warm module state (compiled rulebases, geometry kernels) from the
supervisor instead of re-importing cold, and platforms without ``fork``
don't get a sharded service at all rather than a subtly different one.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, Optional, Tuple

from repro.obs import OBS
from repro.serve.server import GuardServer, SessionRejected
from repro.serve.session import GuardSession

__all__ = ["ShardWorkerServer", "worker_entry"]


class ShardWorkerServer(GuardServer):
    """A :class:`GuardServer` that also speaks the shard control ops."""

    def __init__(self, index: int, enable_obs: bool = False, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.index = index
        self.enable_obs = enable_obs
        self.draining = False
        self._shutdown = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def wait_shutdown(self) -> None:
        """Block until ``control_shutdown`` or a completed drain."""
        await self._shutdown.wait()

    def begin_drain(self) -> None:
        """Refuse new sessions; shut down once the open ones close."""
        self.draining = True
        if not self.sessions:
            self._shutdown.set()

    # -- control + session dispatch ----------------------------------------

    async def _dispatch(
        self, request: dict, session: Optional[GuardSession]
    ) -> Tuple[dict, Optional[GuardSession], bool]:
        op = request.get("op")
        if op == "control_stats":
            payload: Dict[str, Any] = {
                "ok": True,
                "index": self.index,
                "pid": os.getpid(),
                "draining": self.draining,
                "stats": self.snapshot(),
                "obs": OBS.registry.snapshot() if OBS.enabled else None,
            }
            return payload, session, True
        if op == "control_drain":
            self.begin_drain()
            return (
                {"ok": True, "draining": True, "sessions_open": len(self.sessions)},
                session,
                True,
            )
        if op == "control_shutdown":
            self._shutdown.set()
            return {"ok": True, "op": "control_shutdown"}, session, False
        return await super()._dispatch(request, session)

    def _open_session(self, request: dict) -> GuardSession:
        if self.draining:
            raise SessionRejected(
                f"worker {self.index} draining; retry later",
                code="draining",
                retryable=True,
            )
        return super()._open_session(request)

    def _close_session(self, session: GuardSession) -> None:
        super()._close_session(session)
        if self.draining and not self.sessions:
            self._shutdown.set()


def _reset_asyncio_after_fork() -> None:
    """Clear inherited event-loop state so the child can run its own loop.

    A respawn forks from *inside* the supervisor's running loop; the
    child's surviving thread still carries the thread-local
    "a loop is running" flag, which would make ``asyncio.run`` refuse to
    start.  The child never touches the inherited loop — it only needs
    the flag gone.
    """
    try:
        asyncio.events._set_running_loop(None)  # type: ignore[attr-defined]
    except AttributeError:  # pragma: no cover - future CPython drift
        pass
    asyncio.set_event_loop(None)


async def _worker_async(
    index: int,
    socket_path: str,
    enable_obs: bool,
    server_kwargs: Dict[str, Any],
) -> None:
    server = ShardWorkerServer(index=index, enable_obs=enable_obs, **server_kwargs)
    await server.start_unix(socket_path)
    try:
        await server.wait_shutdown()
    finally:
        await server.stop()


def worker_entry(
    index: int,
    socket_path: str,
    enable_obs: bool,
    server_kwargs: Dict[str, Any],
) -> None:
    """The forked child's target: run one worker to completion."""
    _reset_asyncio_after_fork()
    # Start from a clean observability slate: the fork inherits whatever
    # the supervisor had recorded, which must not leak into this
    # worker's scrape.
    OBS.reset()
    if enable_obs:
        OBS.enable()
    else:
        OBS.disable()
    try:
        os.unlink(socket_path)  # a crashed predecessor's stale socket
    except OSError:
        pass
    asyncio.run(_worker_async(index, socket_path, enable_obs, server_kwargs))
