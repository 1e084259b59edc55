#!/usr/bin/env python3
"""The extension features: fail-safe recovery and proximity sensors.

Demonstrates the two behaviours the paper recommends beyond its deployed
system:

1. §II-B — "a fail-safe scenario may be recommended instead" of a bare
   preemptive stop: after RABIT halts an experiment mid-carry, the
   :class:`FailSafePolicy` sets the held vial down safely and retracts
   the arm to its sleep pose, every recovery command still guarded.
2. §V-B — "sensors, which could be treated as a new device class":
   a proximity sensor watches a zone; the runtime-registered S1 rule
   vetoes arm motion into it while a person is present.

Run:  python examples/failsafe_and_sensors.py
"""

from repro.core.errors import SafetyViolation
from repro.core.failsafe import FailSafePolicy
from repro.core.sensor_rule import make_proximity_rule
from repro.devices.sensor import ProximitySensor
from repro.geometry.shapes import Cuboid
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


def failsafe_demo() -> None:
    print("--- Fail-safe recovery (§II-B) ---")
    deck = build_hein_deck()
    rabit, proxies, _ = make_rabit(deck)
    ur3e = proxies["ur3e"]

    ur3e.move_to_location("grid_a1_safe")
    ur3e.pick_up_vial("grid_a1")
    ur3e.move_to_location("grid_a1_safe")
    print("arm is now carrying vial_1...")

    try:
        ur3e.move_to_location("dosing_interior")  # door closed: G1 stop
    except SafetyViolation as stop:
        print(f"RABIT stopped the run: {stop.alert}")
        policy = FailSafePolicy(
            proxies, safe_drop_locations={"ur3e": ("grid_a1_safe", "grid_a1")}
        )
        report = policy.recover(stop.alert)
        for action, outcome in report.steps:
            print(f"  recovery: {action} -> {outcome}")
        vial = deck.vials["vial_1"]
        print(
            f"vial_1 back at {vial.resting_at}, intact: {not vial.broken}; "
            f"arm parked in sleep pose.\n"
        )


def sensor_demo() -> None:
    print("--- Proximity sensor as a fifth device class (§V-B) ---")
    deck = build_hein_deck()
    rabit, proxies, _ = make_rabit(deck)
    sensor = ProximitySensor(
        "curtain", zones={"ur3e": Cuboid((0.2, -0.2, 0.0), (0.5, 0.2, 0.5), name="zone")}
    )
    deck.world.add_device(sensor)
    rabit.devices["curtain"] = sensor
    rabit.rulebase.add(
        make_proximity_rule({"curtain": sensor}, robots={"ur3e": deck.ur3e})
    )
    rabit.initialize()

    proxies["ur3e"].move_to_location("grid_a1_safe")
    print("zone empty: move into the shared zone allowed")

    sensor.person_enters()
    try:
        proxies["ur3e"].move_to_location("grid_a1")
    except SafetyViolation as stop:
        print(f"person in the zone: {stop.alert}")
    sensor.person_leaves()
    proxies["ur3e"].move_to_location("grid_a1_safe")
    print("person left: motion resumes")


if __name__ == "__main__":
    failsafe_demo()
    sensor_demo()
