"""Golden-trace regression corpus: committed traces must replay byte-identically.

The fixtures under ``tests/fixtures/traces/`` were recorded with seed-2024
parameters and committed; any change to the guarded-execution pipeline
that alters a verdict, a state delta, a timestamp, a trajectory sweep,
or a span id shows up here as a byte-level divergence with a first-diff
report.  The corpus covers the three scenario families the issue asks
for: the production solubility workflow (with observability
cross-links), a fault-campaign failure (Bug A under modified RABIT),
and the §V-C multi-door simultaneous-access scenario.
"""

from pathlib import Path

import pytest

from repro.core import interceptor, monitor
from repro.simulator import extended
from repro.trace.recorder import RunTrace
from repro.trace.replay import replay_trace
from repro.trace.schema import SCHEMA_VERSION

FIXTURES = Path(__file__).parent / "fixtures" / "traces"

GOLDEN = [
    ("solubility-2024.trace.jsonl", "solubility", 45),
    ("bug-H1-modified.trace.jsonl", "bug", 20),
    ("multi-door-2024.trace.jsonl", "multi_door", 14),
]


def test_recording_is_default_off():
    """Recording is not a mode of the guard: the interceptor, the monitor
    and the Extended Simulator hold nothing from ``repro.trace``; a trace
    is projected from the command records after the run."""
    for module in (interceptor, monitor, extended):
        leaked = [
            name for name, value in vars(module).items()
            if getattr(value, "__module__", "").startswith("repro.trace")
            or getattr(value, "__name__", "").startswith("repro.trace")
        ]
        assert leaked == [], f"{module.__name__} holds {leaked}"


@pytest.mark.parametrize("filename,workload,events", GOLDEN)
def test_golden_trace_replays_byte_identically(filename, workload, events):
    recorded = RunTrace.read_jsonl(FIXTURES / filename)
    assert recorded.header["workload"] == workload
    assert recorded.schema_version == SCHEMA_VERSION
    assert len(recorded.events) == events

    report = replay_trace(recorded)
    assert report.match, report.diff_text()
    assert recorded.canonical_bytes() == report.replayed.canonical_bytes()


@pytest.mark.parametrize("filename,workload,events", GOLDEN)
def test_golden_trace_file_bytes_are_stable(filename, workload, events, tmp_path):
    """Re-serializing a loaded golden trace reproduces the committed file
    exactly — the on-disk format itself is part of the contract."""
    path = FIXTURES / filename
    out = tmp_path / filename
    RunTrace.read_jsonl(path).write_jsonl(out)
    assert out.read_bytes() == path.read_bytes()


def test_solubility_golden_carries_obs_cross_links():
    """The solubility fixture was recorded with observability enabled, so
    every event is linked to the span that enclosed its interception."""
    recorded = RunTrace.read_jsonl(FIXTURES / "solubility-2024.trace.jsonl")
    assert recorded.header["obs"] is True
    span_ids = [event["obs_span_id"] for event in recorded.events]
    assert all(isinstance(sid, int) for sid in span_ids)
    assert len(set(span_ids)) == len(span_ids)


def test_bug_golden_records_the_detection():
    """The fault-campaign fixture ends in the Bug A door-closed alert."""
    recorded = RunTrace.read_jsonl(FIXTURES / "bug-H1-modified.trace.jsonl")
    outcome = recorded.footer["outcome"]
    assert outcome["detected"] is True
    assert outcome["matches_paper"] is True
    final = recorded.events[-1]["verdict"]
    assert final["outcome"] != "allowed"
    assert final["rule_id"] == "G1"


def test_multi_door_golden_touches_compound_door_state():
    """The multi-door fixture exercises per-door ``device:door`` keys."""
    recorded = RunTrace.read_jsonl(FIXTURES / "multi-door-2024.trace.jsonl")
    touched = {
        key
        for event in recorded.events
        for _, key, _ in event["state_delta"]
    }
    assert "mdoser:front" in touched
    assert "mdoser:back" in touched
