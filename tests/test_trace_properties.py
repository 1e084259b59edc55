"""Property suite: record → replay → re-record is a fixed point.

Hypothesis drives the recorder across randomized workload choices and
randomized fault mutants (each mutant is a distinct single-edit
workflow, so the sampled space covers deletions, reorderings, and
coordinate perturbations with and without alerts) and asserts the
subsystem's core invariant: recording is idempotent — a second
recording of the same workload, and a recording of a loaded trace's
workload, produce byte-identical ``canonical_bytes``.  A final case
pins the same property with observability enabled, where span ids are
part of the compared bytes.

Example counts are small on purpose: every example is one or more full
guarded workflow runs.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.trace.recorder import RunTrace
from repro.trace.replay import replay_trace
from repro.trace.workloads import record_workload

#: Workloads cheap enough to sample repeatedly (no Extended Simulator).
FAST_WORKLOADS = ["testbed", "multi_door", "centrifuge"]

RELAXED = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _record_twice(name, params, obs=False):
    first = record_workload(name, params, obs=obs)
    second = record_workload(name, params, obs=obs)
    return first, second


@RELAXED
@given(name=st.sampled_from(FAST_WORKLOADS))
def test_rerecording_a_workload_is_byte_identical(name):
    first, second = _record_twice(name, {})
    assert first.canonical_bytes() == second.canonical_bytes()


@RELAXED
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=7),
)
def test_random_mutant_round_trips(seed, index, tmp_path_factory):
    """Record a random fault mutant, persist, reload, replay, re-record."""
    params = {"seed": seed, "index": index}
    first = record_workload("mutant", params)

    path = tmp_path_factory.mktemp("traces") / "mutant.trace.jsonl"
    first.write_jsonl(path)
    loaded = RunTrace.read_jsonl(path)
    assert loaded.canonical_bytes() == first.canonical_bytes()

    report = replay_trace(loaded)
    assert report.match, report.diff_text()

    again = record_workload("mutant", params)
    assert again.canonical_bytes() == first.canonical_bytes()


@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["testbed", "multi_door"]))
def test_round_trip_with_observability_enabled(name):
    """Span ids are inside the compared bytes, so determinism here proves
    the obs cross-links are reproducible, not just present."""
    first, second = _record_twice(name, {}, obs=True)
    assert first.canonical_bytes() == second.canonical_bytes()
    assert any(event["obs_span_id"] is not None for event in first.events)

    report = replay_trace(first)
    assert report.match, report.diff_text()


def test_obs_spans_carry_the_trace_id_back_link():
    """The cross-link runs both ways: recorded events name their span,
    and the spans of a recorded run are stamped with the trace id."""
    from repro.obs import OBS

    trace = record_workload("multi_door", obs=True)
    stamped = [
        span
        for span in OBS.collector.spans()
        if span.attributes.get("trace_id") == trace.trace_id
    ]
    assert len(stamped) == len(trace.events)
    recorded_ids = {event["obs_span_id"] for event in trace.events}
    assert {span.span_id for span in stamped} == recorded_ids
    OBS.reset()
