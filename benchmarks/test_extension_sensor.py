"""Extension — the §V-B proximity-sensor device class.

Not a paper table: the paper *proposes* "incorporating sensors, which
could be treated as a new device class ... to respond to sensor inputs
that indicate a robot arm is approaching the area that is occupied".
This bench implements the proposal and measures it: the S1 rule vetoes
moves into/through an occupied zone, costs nothing when the zone is
empty, and reproduces the Berlinguette Lab's false-alarm complaint when
the sensor is flaky.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.errors import SafetyViolation
from repro.core.sensor_rule import make_proximity_rule
from repro.devices.sensor import ProximitySensor
from repro.geometry.shapes import Cuboid
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck

ZONE = Cuboid((0.2, -0.2, 0.0), (0.5, 0.2, 0.5), name="shared_zone")


def _wired_with_sensor():
    deck = build_hein_deck()
    rabit, proxies, _ = make_rabit(deck)
    sensor = ProximitySensor("curtain", zones={"ur3e": ZONE})
    deck.world.add_device(sensor)
    rabit.devices["curtain"] = sensor
    rabit.rulebase.add(
        make_proximity_rule({"curtain": sensor}, robots={"ur3e": deck.ur3e})
    )
    rabit.initialize()
    return deck, rabit, proxies, sensor


def test_sensor_extension(emit, benchmark):
    rows = []

    # Empty zone: the grid move (inside the zone) is allowed.
    deck, rabit, proxies, sensor = _wired_with_sensor()
    proxies["ur3e"].move_to_location("grid_a1_safe")
    assert rabit.alert_count == 0
    rows.append(["zone empty", "move into zone", "allowed"])

    # Occupied zone: the same move is vetoed by S1, preemptively.
    deck, rabit, proxies, sensor = _wired_with_sensor()
    sensor.person_enters()
    with pytest.raises(SafetyViolation) as excinfo:
        proxies["ur3e"].move_to_location("grid_a1_safe")
    assert excinfo.value.alert.rule_id == "S1"
    assert deck.world.damage_log == ()
    rows.append(["zone occupied", "move into zone", f"vetoed: {excinfo.value.alert}"])

    # Flaky sensor: stuck-on reading = the false alarms that made the
    # Berlinguette Lab abandon its sensors.
    deck, rabit, proxies, sensor = _wired_with_sensor()
    sensor.stick_reading(True)
    with pytest.raises(SafetyViolation):
        proxies["ur3e"].move_to_location("grid_a1_safe")
    rows.append(["sensor stuck on (zone empty)", "move into zone", "false alarm (the §V-B trade-off)"])

    rendered = format_table(
        ["sensor state", "command", "outcome"],
        rows,
        title="Extension: proximity sensors as a fifth device class (§V-B)",
    )
    emit("extension_sensor", rendered)

    # Timed kernel: the marginal cost of the S1 check on an allowed move.
    deck, rabit, proxies, sensor = _wired_with_sensor()

    def guarded_move_pair():
        proxies["ur3e"].move_to_location("grid_a1_safe")
        proxies["ur3e"].move_to_location([0.1, -0.3, 0.3])

    benchmark(guarded_move_pair)
    benchmark.extra_info["rule"] = "S1 (runtime-registered custom rule)"
