"""Controlled rule-violation scenarios (§IV's controlled experiments).

"We deliberately executed unsafe scenarios designed to trigger each rule
in the rulebase. ... RABIT successfully detected unsafe behavior in all
these scenarios."

One scenario per rule in Table III (G1-G11) and Table IV (C1-C4), each on
a fresh Hein production deck, plus the testbed's controlled experiments:
a safe setup prefix followed by exactly one command that violates the
rule.  A scenario *passes reproduction* when RABIT stops that command
with an alert attributing the right rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.errors import Alert, SafetyViolation
from repro.core.monitor import RabitOptions
from repro.lab.decks import build_deck, make_rabit


@dataclass
class ScenarioOutcome:
    """Result of attempting one unsafe scenario."""

    rule_id: str
    description: str
    alert: Optional[Alert]

    @property
    def detected(self) -> bool:
        """Whether RABIT stopped the unsafe command at all."""
        return self.alert is not None

    @property
    def attributed_correctly(self) -> bool:
        """Whether the alert names the rule the scenario violates."""
        return self.alert is not None and self.alert.rule_id == self.rule_id


@dataclass(frozen=True)
class RuleScenario:
    """One unsafe scenario: setup prefix + single violating command."""

    rule_id: str
    description: str
    #: Receives (proxies, deck); performs safe setup then the violation.
    #: The violation must be the only command that can raise.
    script: Callable[[Dict, object], None]
    #: Deck preparation before RABIT attaches (e.g. pre-filled vials).
    prepare: Optional[Callable[[object], None]] = None
    #: The registry deck the scenario runs on (:data:`repro.lab.decks.DECKS`).
    deck: str = "hein"


def run_scenario(
    scenario: RuleScenario, options: Optional[RabitOptions] = None
) -> ScenarioOutcome:
    """Execute *scenario* on a fresh deck of its kind under *options*."""
    deck = build_deck(scenario.deck)
    if scenario.prepare is not None:
        scenario.prepare(deck)
    _rabit, proxies, _ = make_rabit(deck, options)
    alert: Optional[Alert] = None
    try:
        scenario.script(proxies, deck)
    except SafetyViolation as stop:
        alert = stop.alert
    return ScenarioOutcome(
        rule_id=scenario.rule_id, description=scenario.description, alert=alert
    )


# ---------------------------------------------------------------------------
# Setup helpers (safe prefixes; they must never alert on a correct deck)
# ---------------------------------------------------------------------------


def _ferry_vial_to_dosing(px: Dict) -> None:
    """Open the door, carry vial_1 from the grid into the dosing device,
    retreat, leaving the vial inside and the door open."""
    px["dosing_device"].open_door()
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].pick_up_vial("grid_a1")
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].move_to_location("dosing_approach")
    px["ur3e"].place_vial("dosing_interior")
    px["ur3e"].move_to_location("dosing_approach")


def _ferry_vial_to_hotplate(px: Dict) -> None:
    """Carry vial_1 (decapped) from the grid onto the hotplate."""
    px["vial_1"].decap_vial()
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].pick_up_vial("grid_a1")
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].move_to_location("hotplate_safe")
    px["ur3e"].place_vial("hotplate_top")
    px["ur3e"].move_to_location("hotplate_safe")


def _carry_vial_toward_centrifuge(px: Dict) -> None:
    """Pick vial_1 up and stage at the centrifuge approach point."""
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].pick_up_vial("grid_a1")
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].move_to_location("centrifuge_approach")


def _prefill(solid: float = 0.0, liquid: float = 0.0, stoppered: bool = True):
    def prepare(deck) -> None:
        vial = deck.vials["vial_1"]
        vial.contents.solid_mg = solid
        vial.contents.liquid_ml = liquid
        if not stoppered:
            vial.decap_vial()

    return prepare


# ---------------------------------------------------------------------------
# Table III scenarios
# ---------------------------------------------------------------------------

GENERAL_SCENARIOS: Tuple[RuleScenario, ...] = (
    RuleScenario(
        "G1",
        "Move the arm inside the dosing device while its door is closed "
        "(the testbed controlled experiment with ViperX)",
        lambda px, deck: px["ur3e"].move_to_location("dosing_interior"),
    ),
    RuleScenario(
        "G2",
        "Close the dosing device door while the arm is still inside",
        lambda px, deck: (
            px["dosing_device"].open_door(),
            px["ur3e"].move_to_location("dosing_approach"),
            px["ur3e"].move_to_location("dosing_interior"),
            px["dosing_device"].close_door(),
        ),
    ),
    RuleScenario(
        "G3",
        "Move the arm into the vial grid (the simulator controlled "
        "experiment with UR3e)",
        lambda px, deck: px["ur3e"].move_to_location([0.30, -0.05, 0.02]),
    ),
    RuleScenario(
        "G4",
        "Pick up a second vial while already holding one",
        lambda px, deck: (
            px["ur3e"].move_to_location("grid_a1_safe"),
            px["ur3e"].pick_up_vial("grid_a1"),
            px["ur3e"].move_to_location("grid_a1_safe"),
            px["ur3e"].move_to_location("grid_a2_safe"),
            px["ur3e"].pick_up_vial("grid_a2"),
        ),
    ),
    RuleScenario(
        "G5",
        "Start the hotplate with no container on it",
        lambda px, deck: px["hotplate"].stir_solution(60),
    ),
    RuleScenario(
        "G6",
        "Stir an empty vial on the hotplate",
        lambda px, deck: (
            _ferry_vial_to_hotplate(px),
            px["hotplate"].stir_solution(60),
        ),
    ),
    RuleScenario(
        "G7",
        "Dose solid into a vial whose stopper is still on",
        lambda px, deck: (
            _ferry_vial_to_dosing(px),
            px["dosing_device"].close_door(),
            px["dosing_device"].dose_solid(5),
        ),
    ),
    RuleScenario(
        "G8",
        "Dose more solid than the vial's remaining capacity "
        "(participant P's over-dose scenario)",
        lambda px, deck: (
            px["vial_1"].decap_vial(),
            _ferry_vial_to_dosing(px),
            px["dosing_device"].close_door(),
            px["dosing_device"].dose_solid(15),
        ),
    ),
    RuleScenario(
        "G9",
        "Start dosing while the device door is open",
        lambda px, deck: (
            px["vial_1"].decap_vial(),
            _ferry_vial_to_dosing(px),
            px["dosing_device"].dose_solid(5),
        ),
    ),
    RuleScenario(
        "G10",
        "Open the dosing device door while it is running",
        lambda px, deck: (
            px["vial_1"].decap_vial(),
            _ferry_vial_to_dosing(px),
            px["dosing_device"].close_door(),
            px["dosing_device"].dose_solid(5),
            px["dosing_device"].open_door(),
        ),
    ),
    RuleScenario(
        "G11",
        "Set the hotplate beyond its temperature threshold (the Hein "
        "researchers' headline safety criterion)",
        lambda px, deck: (
            _ferry_vial_to_hotplate(px),
            px["hotplate"].stir_solution(200),
        ),
        prepare=_prefill(solid=5.0),
    ),
)

# ---------------------------------------------------------------------------
# Table IV scenarios
# ---------------------------------------------------------------------------

CUSTOM_SCENARIOS: Tuple[RuleScenario, ...] = (
    RuleScenario(
        "C1",
        "Dose solvent into a vial that contains no solid yet",
        lambda px, deck: (
            _ferry_vial_to_hotplate(px),
            px["syringe_pump"].dose_initial_solvent(4),
        ),
    ),
    RuleScenario(
        "C2",
        "Load a solid-only vial into the centrifuge",
        lambda px, deck: (
            _carry_vial_toward_centrifuge(px),
            px["ur3e"].place_vial("centrifuge_slot"),
        ),
        prepare=_prefill(solid=5.0),
    ),
    RuleScenario(
        "C3",
        "Load the centrifuge while its red dot faces East",
        lambda px, deck: (
            px["centrifuge"].rotate_rotor("E"),
            _carry_vial_toward_centrifuge(px),
            px["ur3e"].place_vial("centrifuge_slot"),
        ),
        prepare=_prefill(solid=5.0, liquid=5.0),
    ),
    RuleScenario(
        "C4",
        "Load an unstoppered vial into the centrifuge",
        lambda px, deck: (
            _carry_vial_toward_centrifuge(px),
            px["ur3e"].place_vial("centrifuge_slot"),
        ),
        prepare=_prefill(solid=5.0, liquid=5.0, stoppered=False),
    ),
)

ALL_SCENARIOS: Tuple[RuleScenario, ...] = GENERAL_SCENARIOS + CUSTOM_SCENARIOS


# ---------------------------------------------------------------------------
# Testbed-side controlled scenarios (§IV ran on both platforms)
# ---------------------------------------------------------------------------

#: The paper's named testbed controlled experiments: "On the testbed, we
#: attempted to move ViperX inside the dosing device while its door was
#: closed, violating rule 1", plus testbed analogues of the geometric and
#: door rules on the low-fidelity mockups.
TESTBED_SCENARIOS: Tuple[RuleScenario, ...] = (
    RuleScenario(
        "G1",
        "Move ViperX inside the (mock) dosing device while its door is "
        "closed — the paper's named testbed experiment",
        lambda px, deck: px["viperx"].move_to_location("dosing_pickup_viperx"),
        deck="testbed",
    ),
    RuleScenario(
        "G3",
        "Drive ViperX into the shared vial grid",
        lambda px, deck: px["viperx"].move_to_location([0.5, 0.0, 0.02]),
        deck="testbed",
    ),
    RuleScenario(
        "G9",
        "Run the mock dosing device with its door open",
        lambda px, deck: (
            px["dosing_device"].set_door("state", "open"),
            px["dosing_device"].run_action(delay=0, quantity=5),
        ),
        deck="testbed",
    ),
    RuleScenario(
        "G11",
        "Spin the mock centrifuge beyond its threshold",
        lambda px, deck: (
            px["centrifuge"].set_door("state", "closed"),
            px["centrifuge"].start_action(9000.0),
        ),
        deck="testbed",
    ),
)

