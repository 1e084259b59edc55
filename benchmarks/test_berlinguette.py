"""§V-B — generalizing RABIT to the Berlinguette Lab.

Regenerates the device-categorization mapping (every device fits the four
types), runs a spray-coating workflow under the unchanged *general*
rulebase with zero alerts, and confirms general rules still fire on
demand in the new lab.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.errors import SafetyViolation
from repro.lab.decks import make_rabit
from repro.lab.berlinguette import build_berlinguette_deck
from repro.workflow import run_preset

PAPER_MAPPING = {
    "ur5e": "robot_arm",
    "dosing_device": "dosing_system",
    "decapper": "action_device",
    "spin_coater": "action_device",
    "hotplate": "action_device",
    "syringe_pump": "dosing_system",
    "nozzle": "action_device",
    "xrf": "action_device",
}


def test_berlinguette_generalization(emit, benchmark):
    deck = build_berlinguette_deck()
    mapping = deck.categorization()
    for device, kind in PAPER_MAPPING.items():
        assert mapping[device] == kind, device

    rows = [[d, k, PAPER_MAPPING.get(d, "(container)")] for d, k in sorted(mapping.items())]
    table = format_table(
        ["device", "categorized as", "paper's categorization"],
        rows,
        title="§V-B Berlinguette device categorization (four predefined types)",
    )

    # Safe workflow under general rules only.
    assert deck.model.custom_rule_ids == []
    _dag, ctx, result = run_preset("spray_coating")
    assert result.completed and ctx.rabit.alert_count == 0

    # And the general rules transfer: the door rule fires unchanged.
    deck2 = build_berlinguette_deck()
    rabit2, proxies2, _ = make_rabit(deck2)
    with pytest.raises(SafetyViolation) as excinfo:
        proxies2["ur5e"].move_to_location("bdosing_interior")
    assert excinfo.value.alert.rule_id == "G1"

    summary = format_table(
        ["check", "outcome"],
        [
            ["spray-coating workflow under general rules", "completed, 0 alerts"],
            ["G1 (door) fires in the new lab", str(excinfo.value.alert)[:64]],
            ["custom Hein rules enabled", "none (general/custom split)"],
        ],
        title="Generalization checks",
    )
    emit("berlinguette", table + "\n\n" + summary)

    # Timed kernel: one full spray-coating run (deck + monitor + workflow).
    def one_run():
        return run_preset("spray_coating")[2]

    result = benchmark.pedantic(one_run, rounds=2, iterations=1)
    assert result.completed
    benchmark.extra_info["devices_categorized"] = len(mapping)
