"""Differential harness: observability must be a pure observer.

Two invariants gate the tentpole:

1. **Verdict invariance** — running the full Table III/IV controlled
   rule-violation suite with observability enabled produces exactly the
   same alerts (kind, rule attribution, message) as with it disabled.
2. **Latency invariance** — the §II-C virtual-clock figures are
   bit-identical with observability on, because spans only *read* the
   virtual clock and never advance it.

Plus the positive half of the acceptance criterion: with observability
on, a full monitored scenario actually populates interceptor,
rulebase-cache, and collision-sweep metrics.
"""

from __future__ import annotations

import pytest

from repro.analysis.latency import measure_workflow_latency
from repro.core.monitor import RabitOptions
from repro.lab.scenarios import ALL_SCENARIOS, run_scenario
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _clean_global_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def _scenario_verdicts():
    """(rule_id, alert kind, alert rule, message) for every scenario."""
    options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
    out = []
    for scenario in ALL_SCENARIOS:
        outcome = run_scenario(scenario, options=options)
        alert = outcome.alert
        out.append(
            (
                scenario.rule_id,
                alert.kind.value if alert else None,
                alert.rule_id if alert else None,
                alert.message if alert else None,
            )
        )
    return out


def test_observability_changes_no_verdicts():
    baseline = _scenario_verdicts()
    OBS.enable()
    observed = _scenario_verdicts()
    OBS.disable()
    assert observed == baseline
    # And the observed pass really was observed, not silently disabled.
    intercepted = OBS.registry.get("rabit_commands_intercepted_total")
    assert intercepted is not None and intercepted.total() > 0


def test_observability_changes_no_latency_figures():
    baseline = {
        name: (r.commands, r.experiment_seconds, r.rabit_seconds)
        for name, r in measure_workflow_latency().items()
    }
    OBS.enable()
    observed = {
        name: (r.commands, r.experiment_seconds, r.rabit_seconds)
        for name, r in measure_workflow_latency().items()
    }
    OBS.disable()
    assert observed == baseline


def test_observed_scenario_covers_the_hot_path():
    """Acceptance: interceptor, rule cache, and collision sweep all show up."""
    OBS.enable()
    options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
    for scenario in ALL_SCENARIOS[:4]:
        run_scenario(scenario, options=options)
    OBS.disable()

    reg = OBS.registry
    assert reg.get("rabit_commands_intercepted_total").total() > 0
    lookups = reg.get("rabit_rule_cache_lookups_total")
    assert lookups.total() > 0
    assert reg.get("es_trajectory_checks_total").total() > 0
    assert reg.get("es_segments_swept_total").total() > 0
    assert reg.get("geometry_pair_checks_total").total() > 0
    assert reg.get("rabit_alerts_total").total() > 0
    assert reg.get("device_commands_total").total() > 0
    # Spans recorded for the same activity, nested under guards.
    names = {span.name for span in OBS.collector.spans()}
    assert {"intercept.command", "rabit.guard", "rabit.validate",
            "rabit.fetch_state"} <= names
    parents = {s.span_id: s for s in OBS.collector.spans()}
    for span in OBS.collector.spans():
        if span.name == "rabit.guard" and span.parent_id is not None:
            assert parents[span.parent_id].name == "intercept.command"


def test_session_report_gains_observability_section():
    from repro.analysis.session_report import render_session_report
    from repro.lab.decks import make_rabit
    from repro.lab.hein import build_hein_deck

    deck = build_hein_deck()
    rabit, proxies, trace = make_rabit(deck)
    OBS.enable()
    OBS.bind_clock(rabit.clock)
    proxies["dosing_device"].open_door()
    proxies["dosing_device"].close_door()
    OBS.disable()
    report = render_session_report(trace, rabit.alerts, deck.world)
    assert "Observability" in report
    assert "commands intercepted:  2" in report
    assert "spans recorded:" in report

    # Without any recorded spans the section is absent.
    OBS.reset()
    report = render_session_report(trace, rabit.alerts, deck.world)
    assert "Observability" not in report
