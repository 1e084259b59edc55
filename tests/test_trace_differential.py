"""Recording must be free: no verdict, outcome, or latency figure moves.

A run trace is projected from the command records a run keeps anyway,
so recording has no mode to switch on and nothing to leave behind.
This suite runs identical workloads before and after a
``record_workload`` in the same process and compares full canonical
serializations, then covers the fault-engine auto-dump hook end to end
(a failed mutant and a paper-mismatched campaign outcome each leave a
replayable trace).
"""

import dataclasses

from repro.analysis.latency import measure_workflow_latency
from repro.faults.campaign import CAMPAIGN_BUGS, run_bug, run_campaign
from repro.faults.montecarlo import reference_line_ids, run_monte_carlo, score_mutant
from repro.trace.recorder import RunTrace
from repro.trace.replay import replay_trace
from repro.trace.workloads import record_workload

BUG_H1 = next(bug for bug in CAMPAIGN_BUGS if bug.bug_id == "H1")


def test_campaign_verdicts_unchanged_by_recording():
    baseline = run_bug(BUG_H1, "modified").as_dict()
    trace = record_workload("bug", {"bug_id": "H1", "config": "modified"})
    assert len(trace.events) > 0  # the run really was recorded
    assert run_bug(BUG_H1, "modified").as_dict() == baseline


def test_mutant_scores_unchanged_by_recording():
    line_ids = reference_line_ids()
    for index in range(3):
        baseline = score_mutant(index, 30, line_ids)
        record_workload("mutant", {"seed": 30, "index": index})
        after = score_mutant(index, 30, line_ids)
        assert dataclasses.asdict(after) == dataclasses.asdict(baseline)


def test_latency_figures_unchanged_by_recording():
    """The §II-C overhead table is identical after a recorded run, even
    one with observability on — recording charges nothing to the virtual
    clock and leaves no switch set."""
    baseline = measure_workflow_latency()
    trace = record_workload("solubility", obs=True)
    assert len(trace.events) > 0
    after = measure_workflow_latency()
    assert set(after) == set(baseline)
    for name in baseline:
        assert after[name].canonical_bytes() == baseline[name].canonical_bytes()


def test_montecarlo_trace_dir_dumps_replayable_failures(tmp_path):
    """Seed 30's first six mutants include a known false negative; the
    sweep must leave its monitored leg as a replayable trace."""
    report = run_monte_carlo(samples=6, seed=30, trace_dir=str(tmp_path))
    failed = [
        o for o in report.outcomes
        if o.classification in ("false_negative", "false_positive")
    ]
    dumped = sorted(tmp_path.glob("mutant-s30-i*.trace.jsonl"))
    assert len(dumped) == len(failed) > 0
    recorded = RunTrace.read_jsonl(dumped[0])
    assert recorded.header["workload"] == "mutant"
    report = replay_trace(recorded)
    assert report.match, report.diff_text()


def test_campaign_trace_dir_dumps_paper_mismatches(tmp_path):
    """A deviation from the paper's expected detection auto-dumps the bug
    run (forced here by flipping one bug's expectation)."""
    contrarian = dataclasses.replace(BUG_H1, expected={"modified": False})
    result = run_campaign(
        configs=("modified",), bugs=(contrarian,), trace_dir=str(tmp_path)
    )
    assert len(result.mismatches()) == 1
    path = tmp_path / "bug-H1-modified.trace.jsonl"
    assert path.exists()
    report = replay_trace(RunTrace.read_jsonl(path))
    assert report.match, report.diff_text()
