"""Sharded process-pool execution with a deterministic merge.

The fault-injection workloads (Monte Carlo mutant sweeps, the 16-bug
campaign, rule-knockout ablations) are embarrassingly parallel: every
task builds its own deck and world, so tasks share nothing but code.
This engine fans an indexed task list out over a ``fork`` process pool
and reassembles the results **in canonical task order**, so callers see
output that is bit-for-bit independent of worker count, chunk size, and
completion order.  Determinism is the caller's half of the contract:
a task's result must be a pure function of the task value itself (the
Monte Carlo runner guarantees this by deriving each mutant's RNG from
``(base_seed, sample_index)`` — see :mod:`repro.faults.montecarlo`).

Mechanics:

- workers are forked **once** per run (``initializer`` warms per-process
  state such as the reference workflow's line ids) and tasks are handed
  out in chunks, so the per-task dispatch cost is a queue hop, not a
  process start;
- results come back in task order (``ProcessPoolExecutor.map``); a task
  that raises re-raises in the caller, and leaving the ``with`` block
  cancels the tasks not yet started and joins the workers;
- the engine falls back to an in-process sequential loop when the
  effective worker count is 1, the task list is trivial, or the platform
  lacks a ``fork`` start method (Windows / some macOS configurations —
  task functions close over module state that ``spawn`` would re-import
  cold, and correctness beats a cold-start pool);
- progress and timing flow through the existing :mod:`repro.obs`
  registry — counters for tasks dispatched/completed (completion labeled
  per worker pid) and a histogram of per-task wall seconds — recorded in
  the *parent* process so one scrape sees the whole run.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.obs import OBS

__all__ = ["fork_pool_available", "resolve_workers", "run_sharded"]

_OBS_DISPATCHED = OBS.registry.counter(
    "parallel_mutants_dispatched_total",
    "Fault-injection tasks handed to the parallel engine.",
    labels=("kind",),
)
_OBS_COMPLETED = OBS.registry.counter(
    "parallel_mutants_completed_total",
    "Fault-injection tasks completed, by worker pid.",
    labels=("kind", "worker"),
)
_OBS_WALL = OBS.registry.histogram(
    "parallel_mutant_wall_seconds",
    "Per-task wall time as measured inside the worker.",
    labels=("kind",),
    buckets=(0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0),
)
_OBS_POOL = OBS.registry.gauge(
    "parallel_pool_workers",
    "Worker processes used by the most recent parallel run.",
    labels=("kind",),
)


def fork_pool_available() -> bool:
    """Whether this platform offers the ``fork`` start method.

    The engine only uses ``fork`` pools: task functions rely on warm
    module state inherited from the parent, which ``spawn``/``forkserver``
    would rebuild from a cold import per worker."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - defensive: exotic platforms
        return False


def resolve_workers(workers: Optional[int], task_count: int) -> int:
    """Effective worker count: ``None``/``0`` means one per CPU, and a
    pool never outnumbers its tasks."""
    if workers is None or workers == 0:
        workers = os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0 or None, got {workers}")
    return max(1, min(int(workers), max(task_count, 1)))


def _timed_call(task_fn: Callable[[Any], Any], task: Any) -> Tuple[int, float, Any]:
    """Run one task; returns ``(worker_pid, wall_seconds, value)``."""
    start = time.perf_counter()
    value = task_fn(task)
    return os.getpid(), time.perf_counter() - start, value


def _record_completion(kind: str, pid: int, wall_seconds: float) -> None:
    if not OBS.enabled:
        return
    _OBS_COMPLETED.inc(kind=kind, worker=str(pid))
    _OBS_WALL.observe(wall_seconds, kind=kind)


def run_sharded(
    tasks: Iterable[Any],
    task_fn: Callable[[Any], Any],
    *,
    workers: Optional[int] = 1,
    kind: str = "task",
    initializer: Optional[Callable[[], None]] = None,
    chunk_size: Optional[int] = None,
) -> List[Any]:
    """Map *task_fn* over *tasks*, results in task order.

    *task_fn* (and *initializer*) must be module-level callables and each
    task value picklable — they cross the process boundary.  *kind* labels
    the obs metrics.  *chunk_size* overrides the dispatch granularity
    (default: enough chunks for ~4 hand-outs per worker, balancing queue
    overhead against tail latency on uneven tasks).
    """
    task_list: Sequence[Any] = list(tasks)
    count = len(task_list)
    effective = resolve_workers(workers, count)
    if OBS.enabled:
        _OBS_DISPATCHED.inc(count, kind=kind)
        _OBS_POOL.set(effective, kind=kind)

    if effective <= 1 or count <= 1 or not fork_pool_available():
        if initializer is not None:
            initializer()
        timed = (_timed_call(task_fn, task) for task in task_list)
    else:
        chunk = chunk_size or max(1, math.ceil(count / (effective * 4)))
        with ProcessPoolExecutor(
            max_workers=effective,
            mp_context=multiprocessing.get_context("fork"),
            initializer=initializer,
        ) as pool:
            timed = list(
                pool.map(functools.partial(_timed_call, task_fn), task_list, chunksize=chunk)
            )
    values: List[Any] = []
    for pid, wall, value in timed:
        _record_completion(kind, pid, wall)
        values.append(value)
    return values
