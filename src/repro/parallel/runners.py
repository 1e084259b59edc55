"""Fault-injection adapters over the sharded engine.

Each workload maps onto :func:`repro.parallel.engine.run_sharded` with a
module-level task function (it must cross the ``fork`` boundary) and a
per-process warm-up that amortizes setup a sequential run pays once:

- :func:`run_monte_carlo_sharded` — tasks are ``(base_seed, index)``
  pairs; workers warm the reference preset's node-id list once per
  process, then score mutants with the same pure
  :func:`~repro.faults.montecarlo.score_mutant` the sequential loop uses;
- :func:`run_campaign_sharded` — tasks are ``(config, bug)`` pairs in
  canonical configuration-major order (an
  :class:`~repro.faults.campaign.InjectedBug` is plain data — its
  mutations are DAG edits — so it pickles as is);
- :func:`run_bug_matrix` — the ablation shape: arbitrary
  ``(bug, config, exclude_rules)`` triples, e.g. the rule-knockout sweep.

Merging is positional, so every result list is in task order no matter
which worker finished first.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.faults.campaign import BugOutcome, CampaignResult, InjectedBug, run_bug
from repro.faults.montecarlo import (
    MonteCarloReport,
    MutantOutcome,
    reference_line_ids,
    score_mutant,
)
from repro.parallel.engine import run_sharded

__all__ = [
    "run_monte_carlo_sharded",
    "run_dag_fuzz_sharded",
    "run_campaign_sharded",
    "run_bug_matrix",
]

#: Per-process warm state, populated by the pool initializer (or lazily
#: on first task).  Forked workers inherit an empty dict and fill it once.
_WARM: Dict[str, object] = {}


def _warm_montecarlo_worker() -> None:
    """Build the reference node-id list once per worker process."""
    if "line_ids" not in _WARM:
        _WARM["line_ids"] = reference_line_ids()


def _montecarlo_task(task: Tuple[int, int]) -> MutantOutcome:
    base_seed, index = task
    _warm_montecarlo_worker()
    return score_mutant(index, base_seed, _WARM["line_ids"])


def run_monte_carlo_sharded(
    samples: int, seed: int, workers: Optional[int]
) -> MonteCarloReport:
    """The Monte Carlo sweep fanned over a process pool.

    Exact-merge guarantee: outcome *i* is :func:`score_mutant`\\ ``(i,
    seed, ...)`` regardless of worker count, chunk size, or completion
    order, so the report equals the sequential one byte for byte."""
    outcomes = run_sharded(
        [(seed, index) for index in range(samples)],
        _montecarlo_task,
        workers=workers,
        kind="montecarlo",
        initializer=_warm_montecarlo_worker,
    )
    return MonteCarloReport(outcomes=list(outcomes))


def _dag_task(task: Tuple[int, int]) -> MutantOutcome:
    base_seed, index = task
    from repro.workflow.fuzz import score_dag

    return score_dag(index, base_seed)


def run_dag_fuzz_sharded(
    samples: int, seed: int, workers: Optional[int]
) -> MonteCarloReport:
    """The random-DAG fuzz sweep fanned over a process pool.

    Same exact-merge guarantee as the mutant sweep: case *i* is
    :func:`repro.workflow.fuzz.score_dag`\\ ``(i, seed)`` regardless of
    worker count or completion order."""
    outcomes = run_sharded(
        [(seed, index) for index in range(samples)],
        _dag_task,
        workers=workers,
        kind="montecarlo",
    )
    return MonteCarloReport(outcomes=list(outcomes))


def _campaign_task(task: Tuple[str, InjectedBug]) -> BugOutcome:
    config, bug = task
    return run_bug(bug, config)


def run_campaign_sharded(
    configs: Sequence[str],
    bugs: Sequence[InjectedBug],
    workers: Optional[int],
) -> CampaignResult:
    """The bug campaign fanned over a process pool, merged in the
    sequential runner's canonical order (configuration-major)."""
    outcomes = run_sharded(
        [(config, bug) for config in configs for bug in bugs],
        _campaign_task,
        workers=workers,
        kind="campaign",
    )
    return CampaignResult(outcomes=list(outcomes))


def _knockout_task(task: Tuple[InjectedBug, str, Tuple[str, ...]]) -> BugOutcome:
    bug, config, exclude_rules = task
    return run_bug(bug, config, exclude_rules=exclude_rules)


def run_bug_matrix(
    specs: Sequence[Tuple[InjectedBug, str, Tuple[str, ...]]],
    workers: Optional[int] = 1,
) -> List[BugOutcome]:
    """Run arbitrary ``(bug, config, exclude_rules)`` triples, results in
    spec order — the ablation sweeps' fan-out point."""
    return run_sharded(
        list(specs),
        _knockout_task,
        workers=workers,
        kind="knockout",
    )
