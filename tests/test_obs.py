"""Unit tests for the ``repro.obs`` observability layer.

Covers the ISSUE-2 checklist: span nesting/ordering under the virtual
clock, histogram bucket edges, Prometheus text-format escaping, the ring
buffer's drop accounting, and the disabled-by-default contract.
"""

from __future__ import annotations

import json

import pytest

from repro.core.clock import VirtualClock
from repro.obs import OBS, Observability
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.spans import Span, SpanCollector


@pytest.fixture(autouse=True)
def _clean_global_obs():
    """The global runtime must leave every test the way it arrived: off."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_disabled_by_default(self):
        obs = Observability()
        assert not obs.enabled
        with obs.span("anything") as span:
            assert span is None
        assert len(obs.collector) == 0
        assert obs.collector.recorded == 0

    def test_nesting_parent_ids_and_ordering(self):
        obs = Observability().enable()
        with obs.span("outer") as outer:
            with obs.span("middle") as middle:
                with obs.span("inner") as inner:
                    pass
            with obs.span("sibling") as sibling:
                pass
        spans = obs.collector.spans()
        # Start order, not completion order.
        assert [s.name for s in spans] == ["outer", "middle", "inner", "sibling"]
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        # Wall timestamps nest properly.
        assert outer.start_wall <= middle.start_wall <= middle.end_wall
        assert middle.end_wall <= outer.end_wall

    def test_virtual_clock_timestamps(self):
        clock = VirtualClock()
        obs = Observability().enable()
        obs.bind_clock(clock)
        clock.advance(10.0, "setup")
        with obs.span("outer"):
            clock.advance(1.5, "experiment")
            with obs.span("inner") as inner:
                clock.advance(0.5, "experiment")
        outer, inner_recorded = obs.collector.spans()
        assert outer.start_virtual == 10.0
        assert outer.end_virtual == 12.0
        assert outer.duration_virtual == 2.0
        assert inner_recorded.start_virtual == 11.5
        assert inner_recorded.duration_virtual == 0.5
        # The clock is only read, never advanced, by the spans themselves.
        assert clock.now == 12.0

    def test_unbound_clock_yields_none_virtual(self):
        obs = Observability().enable()
        with obs.span("s"):
            pass
        (span,) = obs.collector.spans()
        assert span.start_virtual is None
        assert span.duration_virtual is None
        assert span.duration_wall is not None and span.duration_wall >= 0.0

    def test_span_attributes_and_exception_tagging(self):
        obs = Observability().enable()
        with pytest.raises(ValueError):
            with obs.span("risky", device="d1"):
                raise ValueError("boom")
        (span,) = obs.collector.spans()
        assert span.attributes["device"] == "d1"
        assert span.attributes["error"] == "ValueError"

    def test_ring_buffer_drops_oldest(self):
        collector = SpanCollector(capacity=3)
        for i in range(5):
            collector.record(Span(name=f"s{i}", span_id=i, parent_id=None, start_wall=0.0))
        assert len(collector) == 3
        assert collector.recorded == 5
        assert collector.dropped == 2
        assert [s.name for s in collector.spans()] == ["s2", "s3", "s4"]

    def test_jsonl_roundtrip(self, tmp_path):
        obs = Observability().enable()
        obs.bind_clock(VirtualClock())
        with obs.span("outer", device="d"):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        count = obs.collector.write_jsonl(path)
        lines = path.read_text().strip().splitlines()
        assert count == 2 and len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert docs[0]["name"] == "outer"
        assert docs[1]["parent_id"] == docs[0]["span_id"]
        assert docs[0]["attributes"] == {"device": "d"}
        assert docs[0]["start_virtual"] == 0.0


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_and_total(self):
        c = Counter("cmds_total", "commands", labels=("device",))
        c.inc(1, device="a")
        c.inc(2, device="a")
        c.inc(5, device="b")
        assert c.value(device="a") == 3
        assert c.value(device="b") == 5
        assert c.value(device="never") == 0
        assert c.total() == 8

    def test_counter_rejects_negative_and_wrong_labels(self):
        c = Counter("c_total", labels=("x",))
        with pytest.raises(ValueError):
            c.inc(-1, x="a")
        with pytest.raises(ValueError):
            c.inc(1, wrong="a")
        with pytest.raises(ValueError):
            c.inc(1)

    def test_gauge_set_inc(self):
        g = Gauge("occupancy")
        g.set(10)
        g.inc(-3)
        assert g.value() == 7

    def test_histogram_bucket_edges(self):
        h = Histogram("lat", buckets=(1.0, 2.0, 5.0))
        # The le convention: a value equal to the bound lands IN the bucket.
        h.observe(1.0)
        h.observe(1.0000001)
        h.observe(2.0)
        h.observe(5.0)
        h.observe(5.0000001)  # beyond the last finite bound -> +Inf only
        counts = h.counts()
        assert counts["1.0"] == 1
        assert counts["2.0"] == 2  # 1.0000001 and 2.0
        assert counts["5.0"] == 1
        assert counts["+Inf"] == 1
        assert counts["count"] == 5
        assert counts["sum"] == pytest.approx(14.0000002)

    def test_histogram_cumulative_exposition(self):
        h = Histogram("lat", "latency", buckets=(1.0, 2.0))
        h.observe(0.5)
        h.observe(1.5)
        h.observe(99.0)
        lines = h.expose()
        assert 'lat_bucket{le="1.0"} 1' in lines
        assert 'lat_bucket{le="2.0"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_sum 101" in lines
        assert "lat_count 3" in lines

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_registry_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        c1 = reg.counter("x_total", "first")
        c2 = reg.counter("x_total", "second help is ignored")
        assert c1 is c2
        with pytest.raises(ValueError):
            reg.gauge("x_total")
        with pytest.raises(ValueError):
            reg.counter("x_total", labels=("surprise",))

    def test_registry_reset_keeps_handles_valid(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total")
        c.inc(5)
        reg.reset()
        assert c.value() == 0
        c.inc(1)
        assert reg.counter("x_total").value() == 1

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Counter("9starts_with_digit")
        with pytest.raises(ValueError):
            Counter("ok_name", labels=("bad-label",))


# ---------------------------------------------------------------------------
# Prometheus text format
# ---------------------------------------------------------------------------


class TestPrometheusFormat:
    def test_headers_and_values(self):
        reg = MetricsRegistry()
        reg.counter("requests_total", "Requests served.", labels=("verb",)).inc(
            3, verb="GET"
        )
        reg.gauge("depth", "Queue depth.").set(2)
        text = reg.to_prometheus()
        assert "# HELP requests_total Requests served." in text
        assert "# TYPE requests_total counter" in text
        assert 'requests_total{verb="GET"} 3' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2" in text
        assert text.endswith("\n")

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("odd_total", "odd labels", labels=("path",))
        c.inc(1, path='C:\\lab\n"deck"')
        text = reg.to_prometheus()
        assert 'odd_total{path="C:\\\\lab\\n\\"deck\\""} 1' in text

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("h_total", "line one\nline two \\ backslash")
        text = reg.to_prometheus()
        assert "# HELP h_total line one\\nline two \\\\ backslash" in text
        # The literal newline must NOT survive inside the HELP line.
        for line in text.splitlines():
            if line.startswith("# HELP h_total"):
                assert "\\n" in line

    def test_untouched_unlabelled_series_export_zero(self):
        reg = MetricsRegistry()
        reg.counter("quiet_total", "never incremented")
        assert "quiet_total 0" in reg.to_prometheus()

    def test_metric_names_valid_for_prometheus(self):
        """Every metric the instrumentation registers has a legal name."""
        import re

        # Importing the instrumented modules registers their handles on OBS.
        import repro.core.interceptor  # noqa: F401
        import repro.core.monitor  # noqa: F401
        import repro.geometry.batch  # noqa: F401
        import repro.simulator.extended  # noqa: F401

        name_re = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        snap = OBS.registry.snapshot()
        names = [n for group in snap.values() for n in group]
        assert len(names) >= 10
        for name in names:
            assert name_re.match(name), name

    def test_export_files(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("a_total", "a").inc(4)
        prom = tmp_path / "m.prom"
        js = tmp_path / "m.json"
        prom.write_text(registry.to_prometheus(), encoding="utf-8")
        snapshot = registry.snapshot()
        js.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        assert "a_total 4" in prom.read_text()
        on_disk = json.loads(js.read_text())
        assert on_disk == snapshot
        assert on_disk["counters"]["a_total"]["values"][0]["value"] == 4


# ---------------------------------------------------------------------------
# Runtime summary
# ---------------------------------------------------------------------------


def test_summary_shape_on_empty_runtime():
    obs = Observability()
    summary = obs.summary()
    assert summary["commands_intercepted"] == 0
    assert summary["verdicts"] == {}
    assert summary["rule_cache_hit_rate"] == 0.0
    assert summary["spans_recorded"] == 0
