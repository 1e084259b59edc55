"""Unit tests for the sharded process-pool engine (cheap tasks only).

The heavy end-to-end guarantees (parallel Monte Carlo / campaign equal to
sequential) live in ``test_parallel_differential.py``; this file pins the
engine mechanics with toy tasks: task-order results under out-of-order
completion, worker resolution, the sequential fallback, per-process
initialization, obs metrics, and error propagation.
"""

import faulthandler
import os
import time

import pytest

from repro.obs import OBS
from repro.parallel.engine import fork_pool_available, resolve_workers, run_sharded

_WARMED = {"count": 0}


def _square(x: int) -> int:
    return x * x


def _slow_square(x: int) -> int:
    # Later tasks finish sooner, so workers complete out of order and the
    # results must still come back in task order.
    time.sleep(0.002 * (7 - (x % 8)))
    return x * x


def _warm() -> None:
    _WARMED["count"] += 1


def _warmed_pid(_: int) -> tuple:
    return os.getpid(), _WARMED["count"]


def _boom(x: int) -> int:
    raise ValueError(f"task {x} exploded")


class TestResolveWorkers:
    def test_none_and_zero_mean_cpu_count(self):
        expected = max(1, min(os.cpu_count() or 1, 10))
        assert resolve_workers(None, 10) == expected
        assert resolve_workers(0, 10) == expected

    def test_clamped_to_task_count(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(8, 0) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2, 4)


class TestRunSharded:
    def test_sequential_path_preserves_order(self):
        assert run_sharded(range(9), _square, workers=1) == [x * x for x in range(9)]

    def test_empty_task_list(self):
        assert run_sharded([], _square, workers=4) == []

    @pytest.mark.skipif(not fork_pool_available(), reason="no fork start method")
    def test_parallel_merge_is_canonical_order(self):
        tasks = list(range(23))
        expected = [x * x for x in tasks]
        assert run_sharded(tasks, _slow_square, workers=4) == expected
        # A chunk size that does not divide the task count still merges.
        assert run_sharded(tasks, _slow_square, workers=4, chunk_size=5) == expected

    @pytest.mark.skipif(not fork_pool_available(), reason="no fork start method")
    def test_initializer_warms_each_process_once(self):
        before = _WARMED["count"]
        results = run_sharded(range(12), _warmed_pid, workers=3, initializer=_warm)
        # Forked workers inherit the parent's counter value and bump it
        # exactly once each; the parent's own counter is untouched.
        assert _WARMED["count"] == before
        assert {warmed for _, warmed in results} == {before + 1}
        assert all(pid != os.getpid() for pid, _ in results)

    def test_initializer_runs_in_process_on_fallback(self):
        before = _WARMED["count"]
        results = run_sharded(range(3), _warmed_pid, workers=1, initializer=_warm)
        assert _WARMED["count"] == before + 1
        assert all(pid == os.getpid() for pid, _ in results)
        _WARMED["count"] = before

    @pytest.mark.skipif(not fork_pool_available(), reason="no fork start method")
    def test_worker_error_propagates(self):
        # A hang in pool teardown must fail the run, not stall it: dump
        # every thread's stack and exit after 60 s.
        faulthandler.dump_traceback_later(60, exit=True)
        try:
            with pytest.raises(ValueError, match="exploded"):
                run_sharded(range(4), _boom, workers=2)
        finally:
            faulthandler.cancel_dump_traceback_later()


class TestEngineMetrics:
    def _totals(self):
        reg = OBS.registry
        return (
            reg.get("parallel_mutants_dispatched_total").total(),
            reg.get("parallel_mutants_completed_total").total(),
            reg.get("parallel_mutant_wall_seconds").counts(kind="unit")["count"],
        )

    def test_disabled_records_nothing(self):
        OBS.reset()
        run_sharded(range(5), _square, workers=2, kind="unit")
        assert self._totals() == (0.0, 0.0, 0.0)

    def test_enabled_counts_dispatch_completion_and_wall(self):
        OBS.reset()
        OBS.enable()
        try:
            run_sharded(range(5), _square, workers=2, kind="unit")
        finally:
            OBS.disable()
        dispatched, completed, observed = self._totals()
        assert dispatched == 5.0
        assert completed == 5.0
        assert observed == 5.0
        assert OBS.registry.get("parallel_pool_workers").value(kind="unit") >= 1.0
        OBS.reset()
