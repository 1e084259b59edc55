#!/usr/bin/env python3
"""Quickstart: put RABIT between an experiment script and a lab deck.

Builds the Hein Lab production deck, attaches the RABIT monitor through
the tracing proxies, runs a safe command sequence, and then shows RABIT
vetoing an unsafe one (driving the arm into the dosing device while its
door is closed — Table III rule 1).

Run:  python examples/quickstart.py
"""

from repro.core.errors import SafetyViolation
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.simulator.render import render_topdown


def main() -> None:
    # 1. Build the deck (ground truth) and wire RABIT onto it.  The JSON
    #    configuration a researcher would author is deck.config; it is
    #    validated and loaded through the same path the pilot study used.
    deck = build_hein_deck()
    rabit, proxies, trace = make_rabit(deck)
    ur3e = proxies["ur3e"]
    dosing = proxies["dosing_device"]

    print("The deck, as RABIT's configuration describes it:")
    print(render_topdown(deck.model, "ur3e", robot=deck.ur3e, width=56, height=20))
    print()

    # 2. A safe prefix: open the door, fetch the vial, put it inside.
    print("Running a safe command sequence...")
    dosing.open_door()
    ur3e.move_to_location("grid_a1_safe")
    ur3e.pick_up_vial("grid_a1")
    ur3e.move_to_location("grid_a1_safe")
    ur3e.move_to_location("dosing_approach")
    ur3e.place_vial("dosing_interior")
    ur3e.move_to_location("dosing_approach")
    dosing.close_door()
    print(f"  ok - {len(trace)} commands executed, {rabit.alert_count} alerts")

    # 3. Now the §I footnote bug: try to reach back in without reopening
    #    the door.  RABIT stops the command *before* it executes.
    print("Attempting to enter the dosing device with its door closed...")
    try:
        ur3e.move_to_location("dosing_interior")
    except SafetyViolation as stop:
        print(f"  RABIT stopped the experiment: {stop.alert}")

    # 4. Nothing was damaged, because the command never reached the arm.
    print(f"Ground-truth damage events: {len(deck.world.damage_log)}")
    print("\nCommand trace:")
    for record in trace[-5:]:
        print(f"  {record}")


if __name__ == "__main__":
    main()
