"""Cross-session collision-sweep batching.

The dominant per-command cost of a guarded robot move is the trajectory
sweep.  Its kernel — :meth:`BatchCollisionEngine.first_containing` — is
row-independent, so probe arrays from *different sessions* that share
deck geometry can be stacked into one containment pass and pay the
kernel's fixed costs once per batch instead of once per command.

:class:`SweepBatcher` is the funnel: sessions submit prepared
:class:`~repro.simulator.extended.SweepJob` s into one
:class:`asyncio.Queue`; a drainer task takes everything that has
accumulated, groups it by geometry key, runs one stacked pass per
(group, probe family), and resolves each job's future with the verdict
:func:`~repro.simulator.extended.finish_sweep` derives.  Because every
per-job result is bit-identical to evaluating that job alone, batching
is invisible to verdicts — the differential suite pins this.

Every job gets the full sweep (tool points, gripper tips, held-vial
tips, walls, bounds), whatever the load.  The queue needs no bound of
its own: a session awaits its sweep before it reads its next frame, so
each session has at most one sweep in flight and the service's session
cap bounds the queue.  Overload is answered at admission, by the
server's retryable ``session-limit`` refusal, never by a weaker sweep.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Hashable, List, Optional, Tuple

from repro.geometry.batch import BatchCollisionEngine
from repro.obs import OBS
from repro.simulator.extended import SweepJob, build_sweep_engines, finish_sweep

__all__ = ["SweepBatcher"]

_OBS_SWEEPS = OBS.registry.counter(
    "serve_sweeps_total", "Sweeps routed through the cross-session batcher."
)
_OBS_BATCHES = OBS.registry.counter(
    "serve_batches_total", "Cross-session sweep batches executed."
)
_OBS_BATCH_SIZE = OBS.registry.histogram(
    "serve_batch_size",
    "Jobs per cross-session sweep batch.",
    buckets=(1, 2, 4, 8, 16, 32),
)
_OBS_QUEUE_DEPTH = OBS.registry.gauge(
    "serve_sweep_queue_depth", "Sweep jobs waiting in the batcher queue."
)


class SweepBatcher:
    """One sweep queue + drainer shared by every session."""

    def __init__(self) -> None:
        self._queue: asyncio.Queue = asyncio.Queue()
        #: Engine pairs per geometry key.  Keys embed the deck signature
        #: (or a per-session unique token once a session's geometry
        #: revision moves), the frame, and the exclusion set — everything
        #: engine construction reads — so an entry can never serve stale
        #: geometry.
        self._engines: Dict[
            Hashable, Tuple[BatchCollisionEngine, BatchCollisionEngine]
        ] = {}
        self._drainer: Optional[asyncio.Task] = None
        #: Operational counters.  Plain ints mutated only between awaits,
        #: authoritative regardless of whether observability is enabled.
        self.stats: Dict[str, int] = {
            "submitted": 0,
            "batched": 0,
            "batches": 0,
            "max_batch": 0,
            # Always 0 (every sweep is full); kept because
            # guardbench/run.py (batch_delta) reads this key.
            "degraded": 0,
        }

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the drainer task on the running event loop."""
        if self._drainer is None or self._drainer.done():
            self._drainer = asyncio.get_running_loop().create_task(
                self._drain_loop(), name="sweep-batcher-drain"
            )

    async def stop(self) -> None:
        """Cancel the drainer and fail any jobs still queued."""
        if self._drainer is not None:
            self._drainer.cancel()
            try:
                await self._drainer
            except asyncio.CancelledError:
                pass
            self._drainer = None
        while not self._queue.empty():
            _job, _key, future = self._queue.get_nowait()
            if not future.done():
                future.set_exception(RuntimeError("sweep batcher stopped"))

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (gauge snapshot)."""
        return self._queue.qsize()

    # -- submission --------------------------------------------------------

    async def submit(self, job: SweepJob, geom_key: Hashable) -> Optional[str]:
        """Sweep *job* in the next batch; the verdict message or ``None``.

        *geom_key* must be equal for two jobs only when their deck
        geometry (frame, exclusions, cuboid contents) is identical —
        sessions compute it from the deck signature and their geometry
        revision.
        """
        self.stats["submitted"] += 1
        future = asyncio.get_running_loop().create_future()
        self._queue.put_nowait((job, geom_key, future))
        if OBS.enabled:
            _OBS_QUEUE_DEPTH.set(float(self._queue.qsize()))
            _OBS_SWEEPS.inc(1)
        return await future

    # -- the drainer -------------------------------------------------------

    async def _drain_loop(self) -> None:
        while True:
            first = await self._queue.get()
            # One cooperative yield lets sessions that were about to
            # submit land in this batch instead of the next.
            await asyncio.sleep(0)
            batch = [first]
            while not self._queue.empty():
                batch.append(self._queue.get_nowait())
            if OBS.enabled:
                _OBS_QUEUE_DEPTH.set(float(self._queue.qsize()))
            self._run_batch(batch)

    def _run_batch(self, batch: List[tuple]) -> None:
        self.stats["batches"] += 1
        self.stats["batched"] += len(batch)
        self.stats["max_batch"] = max(self.stats["max_batch"], len(batch))
        if OBS.enabled:
            _OBS_BATCHES.inc(1)
            _OBS_BATCH_SIZE.observe(float(len(batch)))

        groups: Dict[Hashable, List[tuple]] = {}
        for item in batch:
            groups.setdefault(item[1], []).append(item)
        for geom_key, items in groups.items():
            try:
                self._run_group(geom_key, items)
            except Exception as exc:  # pragma: no cover - defensive
                for _job, _key, future in items:
                    if not future.done():
                        future.set_exception(exc)

    def _run_group(self, geom_key: Hashable, items: List[tuple]) -> None:
        """Evaluate one geometry-homogeneous group in stacked passes."""
        obst_engine, full_engine = self._engines_for(geom_key, items[0][0])

        jobs = [item[0] for item in items]
        probe_sets = [job.probe_points() for job in jobs]
        arm_hits = obst_engine.first_containing_many([p[0] for p in probe_sets])
        # Gripper tips for every job, then vial tips for the jobs that
        # hold something — one stacked pass against the full engine.
        full_arrays = [p[1] for p in probe_sets]
        vial_jobs = [i for i, p in enumerate(probe_sets) if p[2] is not None]
        full_arrays.extend(probe_sets[i][2] for i in vial_jobs)
        full_hits = full_engine.first_containing_many(full_arrays)
        tip_hits = full_hits[: len(jobs)]
        vial_hits = dict(zip(vial_jobs, full_hits[len(jobs) :]))

        for i, (job, _key, future) in enumerate(items):
            problem = finish_sweep(
                job.call,
                job.samples,
                job.model.walls.get(job.frame, []),
                job.model.workspace_bounds.get(job.frame),
                job.held,
                arm_hits[i],
                tip_hits[i],
                vial_hits.get(i),
                obst_engine.names,
                full_engine.names,
            )
            if not future.done():
                future.set_result(problem)

    # -- engines -----------------------------------------------------------

    def _engines_for(
        self, geom_key: Hashable, job: SweepJob
    ) -> Tuple[BatchCollisionEngine, BatchCollisionEngine]:
        engines = self._engines.get(geom_key)
        if engines is None:
            if len(self._engines) >= 256:
                # Safety valve: geometry keys churn only when sessions
                # mutate geometry; cap the cache rather than grow forever.
                self._engines.clear()
            engines = build_sweep_engines(job.model, job.frame, list(job.exclude))
            self._engines[geom_key] = engines
        return engines
