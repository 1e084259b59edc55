"""The §IV controlled experiments: every rule's violation is detected.

"We deliberately executed unsafe scenarios designed to trigger each rule
in the rulebase ... RABIT successfully detected unsafe behavior in all
these scenarios."
"""

import pytest

from repro.lab.scenarios import (
    ALL_SCENARIOS,
    CUSTOM_SCENARIOS,
    GENERAL_SCENARIOS,
    run_scenario,
)


class TestScenarioInventory:
    def test_one_scenario_per_general_rule(self):
        assert [s.rule_id for s in GENERAL_SCENARIOS] == [
            f"G{i}" for i in range(1, 12)
        ]

    def test_one_scenario_per_custom_rule(self):
        assert [s.rule_id for s in CUSTOM_SCENARIOS] == ["C1", "C2", "C3", "C4"]


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.rule_id)
def test_rule_violation_detected_and_attributed(scenario):
    outcome = run_scenario(scenario)
    assert outcome.detected, f"{scenario.rule_id} violation was not detected"
    assert outcome.attributed_correctly, (
        f"{scenario.rule_id} expected, alert was {outcome.alert}"
    )


@pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.rule_id)
def test_detection_is_preemptive(scenario):
    """RABIT stops the experiment before the unsafe command executes —
    the deck's ground truth records no damage."""
    from repro.lab.hein import build_hein_deck

    # run_scenario builds its own deck; re-run and inspect indirectly by
    # checking the alert's command never reached a device: a detected
    # precondition violation raises before execution, so the scenario
    # function cannot have produced damage.  We verify via a fresh run
    # that also captures the deck.
    deck = build_hein_deck()
    if scenario.prepare is not None:
        scenario.prepare(deck)
    from repro.core.errors import SafetyViolation
    from repro.lab.decks import make_rabit

    rabit, proxies, _ = make_rabit(deck)
    try:
        scenario.script(proxies, deck)
    except SafetyViolation:
        pass
    assert deck.world.damage_log == (), (
        f"{scenario.rule_id}: damage occurred despite preemptive detection"
    )


class TestTestbedControlledScenarios:
    """§IV also ran controlled experiments on the testbed ("we attempted
    to move ViperX inside the dosing device while its door was closed");
    the same rules must fire on the low-fidelity deck."""

    def test_inventory(self):
        from repro.lab.scenarios import TESTBED_SCENARIOS

        assert [s.rule_id for s in TESTBED_SCENARIOS] == ["G1", "G3", "G9", "G11"]
        assert {s.deck for s in TESTBED_SCENARIOS} == {"testbed"}

    @pytest.mark.parametrize(
        "index", range(4), ids=lambda i: ["G1", "G3", "G9", "G11"][i]
    )
    def test_detected_on_testbed(self, index):
        from repro.lab.scenarios import TESTBED_SCENARIOS, run_scenario

        outcome = run_scenario(TESTBED_SCENARIOS[index])
        assert outcome.detected and outcome.attributed_correctly, str(outcome.alert)
