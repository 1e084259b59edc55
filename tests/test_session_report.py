"""Tests for the session audit report."""

import pytest

from repro.analysis.session_report import render_session_report, summarize_session
from repro.core.errors import SafetyViolation
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.workflow import run_preset


class TestCleanSession:
    @pytest.fixture(scope="class")
    def clean_run(self):
        _, ctx, _ = run_preset("solubility")
        return ctx.deck, ctx.rabit, ctx.trace

    def test_summary_numbers(self, clean_run):
        deck, rabit, trace = clean_run
        summary = summarize_session(trace, rabit.alerts, deck.world)
        assert summary.clean
        assert summary.commands == len(trace) > 0
        assert summary.vetoed == 0
        assert summary.virtual_duration > 0

    def test_report_says_clean(self, clean_run):
        deck, rabit, trace = clean_run
        report = render_session_report(trace, rabit.alerts, deck.world)
        assert "verdict:            CLEAN" in report
        assert "Alerts" not in report
        assert "Commands per device" in report
        assert "ur3e" in report


class TestDirtySession:
    @pytest.fixture(scope="class")
    def vetoed_run(self):
        deck = build_hein_deck()
        rabit, proxies, trace = make_rabit(deck)
        try:
            proxies["ur3e"].move_to_location("dosing_interior")
        except SafetyViolation:
            pass
        return deck, rabit, trace

    def test_veto_counted(self, vetoed_run):
        deck, rabit, trace = vetoed_run
        summary = summarize_session(trace, rabit.alerts, deck.world)
        assert not summary.clean
        assert summary.vetoed == 1 and summary.alerts == 1
        assert summary.damage_events == 0  # preemptive stop

    def test_report_lists_alert_and_command(self, vetoed_run):
        deck, rabit, trace = vetoed_run
        report = render_session_report(trace, rabit.alerts, deck.world)
        assert "ATTENTION REQUIRED" in report
        assert "[G1]" in report
        assert "command: move_robot_inside" in report

    def test_damage_section_when_world_is_harmed(self):
        from repro.testbed.deck import build_testbed_deck

        deck = build_testbed_deck()
        rabit, proxies, trace = make_rabit(deck)
        # Door closed (G9 satisfied), no vial inside: on the testbed,
        # container tracking is unreliable so the dose is not vetoed —
        # but ground truth records the spill, and the report shows it.
        proxies["dosing_device"].run_action(delay=0, quantity=5)
        report = render_session_report(trace, rabit.alerts, deck.world)
        assert "Ground-truth damage" in report
        assert "solid_spill" in report


class TestEmptySession:
    def test_zero_commands(self):
        deck = build_hein_deck()
        rabit, proxies, trace = make_rabit(deck)
        summary = summarize_session(trace, rabit.alerts, deck.world)
        assert summary.commands == 0 and summary.virtual_duration == 0.0
        report = render_session_report(trace, rabit.alerts, deck.world)
        assert "CLEAN" in report
