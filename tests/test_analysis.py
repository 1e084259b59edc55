"""Tests for metrics, report formatting, and the latency experiment."""

import pytest

from repro.analysis.latency import measure_workflow_latency
from repro.analysis.metrics import campaign_stats, false_positive_check, severity_rows
from repro.analysis.report import format_severity_table, format_table


class TestMetrics:
    def test_campaign_stats(self, campaign_result):
        stats = campaign_stats(campaign_result, "modified")
        assert stats.total == 16 and stats.detected == 12
        assert stats.percent == 75

    def test_severity_rows_ordered(self, campaign_result):
        rows = severity_rows(campaign_result, "modified")
        assert [r[0] for r in rows] == ["low", "medium_low", "medium_high", "high"]
        assert rows == [
            ("low", 3, 1),
            ("medium_low", 1, 1),
            ("medium_high", 6, 4),
            ("high", 6, 6),
        ]

    def test_false_positive_check(self):
        assert false_positive_check([], workflow_completed=True)
        assert not false_positive_check(["alert"], workflow_completed=True)
        assert not false_positive_check([], workflow_completed=False)


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [["x", 1], ["yyyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len(lines) == 5

    def test_severity_table_totals(self, campaign_result):
        text = format_severity_table(severity_rows(campaign_result, "modified"))
        assert "Table V" in text
        assert "16" in text and "12" in text
        assert "breaking expensive equipment" in text


class TestLatencyExperiment:
    @pytest.fixture(scope="class")
    def reports(self):
        return measure_workflow_latency()

    def test_all_four_configurations_present(self, reports):
        assert set(reports) == {"unmonitored", "rabit", "rabit+es", "rabit+es-headless"}

    def test_unmonitored_has_no_rabit_time(self, reports):
        assert reports["unmonitored"].rabit_seconds == 0.0

    def test_rabit_overhead_matches_paper(self, reports):
        # §II-C: "approximately 0.03 s overhead (1.5 %)".
        report = reports["rabit"]
        assert 0.02 <= report.overhead_per_command <= 0.04
        assert 1.0 <= report.overhead_percent <= 2.5

    def test_es_gui_overhead_matches_paper(self, reports):
        # §II-C: "approximately 2 s overhead (112 %)".
        report = reports["rabit+es"]
        assert 1.8 <= report.overhead_per_command <= 2.2
        assert 95.0 <= report.overhead_percent <= 130.0

    def test_bypassing_gui_restores_cheap_monitoring(self, reports):
        # The deployment plan: "bypass the GUI entirely".
        assert reports["rabit+es-headless"].overhead_percent < 3.0

    def test_same_command_count_across_configurations(self, reports):
        counts = {r.commands for r in reports.values()}
        assert len(counts) == 1

    def test_deterministic(self):
        a = measure_workflow_latency()["rabit"]
        b = measure_workflow_latency()["rabit"]
        assert a.rabit_seconds == pytest.approx(b.rabit_seconds)


class TestFetchStateScaling:
    """The monitor's per-command overhead is dominated by FetchState's
    one-status-round-trip-per-device; it must scale linearly with deck
    size (the §II-C cost model)."""

    @staticmethod
    def _overhead_for(vial_count):
        from repro.core.clock import VirtualClock
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck

        names = tuple(f"vial_{i + 1}" for i in range(vial_count))
        deck = build_hein_deck(vial_names=names)
        clock = VirtualClock()
        rabit, proxies, _ = make_rabit(deck, clock=clock)
        baseline = clock.spent("rabit_fetch_state")
        proxies["dosing_device"].open_door()
        return clock.spent("rabit_fetch_state") - baseline, len(deck.devices)

    def test_overhead_grows_linearly_with_device_count(self):
        small, n_small = self._overhead_for(2)
        large, n_large = self._overhead_for(8)
        assert n_large == n_small + 6
        # 3 ms per extra device, exactly.
        assert large - small == pytest.approx(0.003 * 6)
