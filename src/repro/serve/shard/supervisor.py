"""The shard supervisor: fork workers, watch them, merge their stats.

:class:`ShardService` is the parent process of the sharded guard
service.  It forks ``workers`` child processes (fork-only, mirroring
:mod:`repro.parallel` — children inherit warm module state instead of
re-importing cold), each running a full
:class:`~repro.serve.shard.worker.ShardWorkerServer` event loop on its
own unix socket; fronts them with a
:class:`~repro.serve.shard.router.ShardRouter`; and runs two service
loops of its own:

- a **watchdog** that polls child liveness and — unless respawn is
  disabled — forks a replacement at the same index when a worker dies.
  While the slot is empty the router refuses that shard's sessions with
  the retryable ``worker-unavailable`` code; once the replacement binds
  its socket, the same routing key lands on the fresh worker.
- an optional **metrics endpoint** (``/metrics`` + ``/healthz``, see
  :mod:`repro.serve.shard.http`) publishing the merged cross-worker
  view for scraping.

Stat collection is the control channel: one short-lived connection per
worker, in worker-index order, speaking the ``control_stats`` op; the
responses merge deterministically via :mod:`repro.serve.shard.merge`.
Graceful teardown drains through ``control_shutdown`` before falling
back to signals, so tests and operators both get prompt, clean exits.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.monitor import RabitOptions
from repro.parallel.engine import fork_pool_available
from repro.serve.protocol import encode_message, read_message
from repro.serve.shard.http import MetricsEndpoint
from repro.serve.shard.merge import merged_view
from repro.serve.shard.router import ShardRouter
from repro.serve.shard.routing import worker_socket_path
from repro.serve.shard.worker import worker_entry

__all__ = ["ShardConfig", "ShardService", "ShardUnsupportedError"]


class ShardUnsupportedError(RuntimeError):
    """This platform cannot host a sharded service (no ``fork``)."""


@dataclass
class ShardConfig:
    """Everything a sharded service needs to come up."""

    workers: int = 2
    #: Public unix socket the router binds ('' → TCP host/port instead).
    socket: str = ""
    host: str = "127.0.0.1"
    port: int = 0
    #: Per-worker GuardServer knobs (each worker gets the full budget).
    max_sessions: int = 32
    default_io_latency: float = 0.0
    #: Metrics endpoint port (``None`` → no HTTP endpoint; 0 → ephemeral,
    #: rewritten to the bound port by :meth:`ShardService.start`).
    metrics_port: Optional[int] = None
    metrics_host: str = "127.0.0.1"
    #: Enable the obs layer inside each worker so ``/metrics`` carries
    #: the full serve_* counter families, not just the always-on stats.
    enable_obs: bool = False
    #: Fork a replacement when a worker dies (the watchdog's other half).
    respawn: bool = True
    watchdog_interval: float = 0.05
    options: Optional[RabitOptions] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def server_kwargs(self) -> Dict[str, Any]:
        return {
            "max_sessions": self.max_sessions,
            "default_io_latency": self.default_io_latency,
            "options": self.options,
        }


@dataclass
class WorkerHandle:
    """One shard slot: its process, socket, and respawn history."""

    index: int
    socket_path: str
    process: Optional[multiprocessing.process.BaseProcess] = None
    respawns: int = 0
    draining: bool = False

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class ShardService:
    """Supervisor + router + workers; the sharded service's front door."""

    def __init__(self, config: ShardConfig) -> None:
        if not fork_pool_available():
            raise ShardUnsupportedError(
                "sharded serving requires the 'fork' start method "
                "(unavailable on this platform); run without --shard-workers"
            )
        self.config = config
        self._scratch: Optional[tempfile.TemporaryDirectory] = None
        base = config.socket
        if not base:
            self._scratch = tempfile.TemporaryDirectory(prefix="rabit-shard-")
            base = os.path.join(self._scratch.name, "guard.sock")
        self._socket_base = base
        self.workers: List[WorkerHandle] = [
            WorkerHandle(index=i, socket_path=worker_socket_path(base, i))
            for i in range(config.workers)
        ]
        self.router = ShardRouter(self)
        self.metrics: Optional[MetricsEndpoint] = None
        self._watchdog_task: Optional[asyncio.Task] = None
        self.stats: Dict[str, int] = {"workers_respawned": 0}
        self._mp = multiprocessing.get_context("fork")

    # -- properties the router reads ---------------------------------------

    @property
    def worker_count(self) -> int:
        return len(self.workers)

    def alive_flags(self) -> List[bool]:
        return [handle.alive() for handle in self.workers]

    async def connect_worker(
        self, index: int
    ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        """One fresh stream to worker *index* (raises OSError when down)."""
        return await asyncio.open_unix_connection(self.workers[index].socket_path)

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Fork the workers, wait for their sockets, start the router."""
        for handle in self.workers:
            self._spawn(handle)
        await asyncio.gather(
            *[self._wait_ready(handle) for handle in self.workers]
        )
        if self.config.socket:
            await self.router.start_unix(self.config.socket)
        else:
            self.config.port = await self.router.start_tcp(
                self.config.host, self.config.port
            )
        if self.config.metrics_port is not None:
            self.metrics = MetricsEndpoint(self)
            self.config.metrics_port = await self.metrics.start(
                self.config.metrics_host, self.config.metrics_port
            )
        self._watchdog_task = asyncio.get_running_loop().create_task(
            self._watchdog(), name="shard-watchdog"
        )

    async def stop(self) -> None:
        """Stop routing, shut workers down, reap the processes."""
        if self._watchdog_task is not None:
            self._watchdog_task.cancel()
            try:
                await self._watchdog_task
            except asyncio.CancelledError:
                pass
            self._watchdog_task = None
        await self.router.stop()
        if self.metrics is not None:
            await self.metrics.stop()
            self.metrics = None
        for handle in self.workers:
            if handle.alive():
                try:
                    await self._control(handle.index, {"op": "control_shutdown"})
                except (ConnectionError, OSError):
                    pass
        for handle in self.workers:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=1.0)
            handle.process = None
        for handle in self.workers:
            try:
                os.unlink(handle.socket_path)
            except OSError:
                pass
        if self._scratch is not None:
            self._scratch.cleanup()
            self._scratch = None

    # -- worker management -------------------------------------------------

    def _spawn(self, handle: WorkerHandle) -> None:
        handle.draining = False
        process = self._mp.Process(
            target=worker_entry,
            args=(
                handle.index,
                handle.socket_path,
                self.config.enable_obs,
                self.config.server_kwargs(),
            ),
            daemon=True,
            name=f"rabit-shard-w{handle.index}",
        )
        process.start()
        handle.process = process

    async def _wait_ready(self, handle: WorkerHandle, budget: float = 5.0) -> None:
        """Poll until the worker's socket accepts (it binds before serving)."""
        deadline = asyncio.get_running_loop().time() + budget
        while True:
            try:
                reader, writer = await asyncio.open_unix_connection(
                    handle.socket_path
                )
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
                return
            except (ConnectionError, OSError):
                if asyncio.get_running_loop().time() >= deadline:
                    raise RuntimeError(
                        f"worker {handle.index} did not come up within {budget}s"
                    ) from None
                await asyncio.sleep(0.01)

    async def _watchdog(self) -> None:
        while True:
            await asyncio.sleep(self.config.watchdog_interval)
            for handle in self.workers:
                if handle.process is not None and not handle.process.is_alive():
                    handle.process.join(timeout=0)
                    handle.process = None
                    try:
                        os.unlink(handle.socket_path)
                    except OSError:
                        pass
                    if self.config.respawn and not handle.draining:
                        handle.respawns += 1
                        self.stats["workers_respawned"] += 1
                        self._spawn(handle)

    async def restart_worker(self, index: int) -> None:
        """Drain-and-respawn worker *index* gracefully.

        The worker refuses new sessions immediately (retryable
        ``draining`` code), exits once its open sessions close, and the
        supervisor forks a fresh replacement at the same index.
        """
        handle = self.workers[index]
        handle.draining = True
        try:
            await self._control(index, {"op": "control_drain"})
        except (ConnectionError, OSError):
            pass  # already dead: the respawn below still runs
        process = handle.process
        if process is not None:
            while process.is_alive():
                await asyncio.sleep(self.config.watchdog_interval)
            process.join(timeout=0)
            handle.process = None
        handle.respawns += 1
        self.stats["workers_respawned"] += 1
        self._spawn(handle)
        await self._wait_ready(handle)

    # -- the control channel -----------------------------------------------

    async def _control(self, index: int, request: dict) -> dict:
        reader, writer = await self.connect_worker(index)
        try:
            writer.write(encode_message(request))
            await writer.drain()
            response = await read_message(reader)
            if response is None:
                raise ConnectionError(
                    f"worker {index} closed the control connection"
                )
            return response
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def collect_worker_payloads(self) -> List[Optional[dict]]:
        """``control_stats`` from every worker, in index order; ``None``
        for a worker that is down mid-respawn."""
        payloads: List[Optional[dict]] = []
        for handle in self.workers:
            try:
                payloads.append(
                    await self._control(handle.index, {"op": "control_stats"})
                )
            except (ConnectionError, OSError):
                payloads.append(None)
        return payloads

    async def merged_stats(self) -> dict:
        """The canonical cross-worker stats view (+ router/supervisor)."""
        payloads = await self.collect_worker_payloads()
        view = merged_view(
            [p["stats"] if p is not None else None for p in payloads]
        )
        view["router"] = {
            **self.router.stats,
            "routed_per_worker": [
                self.router.routed_per_worker.get(i, 0)
                for i in range(self.worker_count)
            ],
        }
        view["supervisor"] = {
            **self.stats,
            "respawns_per_worker": [h.respawns for h in self.workers],
        }
        return view
