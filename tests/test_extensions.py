"""Tests for the §II-B / §V-B extension features: the fail-safe recovery
policy and the proximity-sensor device class with its S1 rule."""

import pytest

from repro.core.errors import SafetyViolation
from repro.core.failsafe import FailSafePolicy
from repro.core.sensor_rule import make_proximity_rule
from repro.devices.base import DeviceKind
from repro.devices.sensor import ProximitySensor
from repro.geometry.shapes import Cuboid
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


@pytest.fixture()
def wired():
    deck = build_hein_deck()
    rabit, proxies, trace = make_rabit(deck)
    return deck, rabit, proxies


class TestFailSafePolicy:
    def test_recovers_arm_holding_vial(self, wired):
        deck, rabit, proxies = wired
        ur3e = proxies["ur3e"]
        ur3e.move_to_location("grid_a1_safe")
        ur3e.pick_up_vial("grid_a1")
        ur3e.move_to_location("grid_a1_safe")

        # A bug now triggers a stop while the arm holds the vial.
        with pytest.raises(SafetyViolation) as excinfo:
            ur3e.move_to_location("dosing_interior")  # door closed: G1

        policy = FailSafePolicy(
            proxies, safe_drop_locations={"ur3e": ("grid_a1_safe", "grid_a1")}
        )
        report = policy.recover(excinfo.value.alert)

        assert report.fully_recovered, report.steps
        vial = deck.vials["vial_1"]
        assert vial.resting_at == "grid_a1" and not vial.broken
        assert deck.ur3e.holding is None
        import numpy as np

        assert np.allclose(deck.ur3e.kinematics.q, deck.ur3e.profile.sleep_q)

    def test_stops_running_devices(self, wired):
        deck, rabit, proxies = wired
        # Put a filled vial on the hotplate and start it legitimately.
        vial = deck.vials["vial_1"]
        vial.contents.solid_mg = 5.0
        rabit.seed_tracked("container_solid", "vial_1", 5.0)
        ur3e = proxies["ur3e"]
        vialp = proxies["vial_1"]
        vialp.decap_vial()
        ur3e.move_to_location("grid_a1_safe")
        ur3e.pick_up_vial("grid_a1")
        ur3e.move_to_location("grid_a1_safe")
        ur3e.move_to_location("hotplate_safe")
        ur3e.place_vial("hotplate_top")
        ur3e.move_to_location("hotplate_safe")
        proxies["hotplate"].stir_solution(60)
        assert deck.devices["hotplate"].active

        with pytest.raises(SafetyViolation) as excinfo:
            ur3e.move_to_location("dosing_interior")
        report = FailSafePolicy(proxies).recover(excinfo.value.alert)
        assert not deck.devices["hotplate"].active
        assert any("hotplate: stop" in action for action, _ in report.steps)

    def test_unconfigured_drop_is_flagged_not_fatal(self, wired):
        deck, rabit, proxies = wired
        ur3e = proxies["ur3e"]
        ur3e.move_to_location("grid_a1_safe")
        ur3e.pick_up_vial("grid_a1")
        ur3e.move_to_location("grid_a1_safe")
        with pytest.raises(SafetyViolation) as excinfo:
            ur3e.move_to_location("dosing_interior")
        report = FailSafePolicy(proxies).recover(excinfo.value.alert)
        assert any("no safe drop configured" in outcome for _, outcome in report.steps)

    def test_recovery_never_raises(self, wired):
        deck, rabit, proxies = wired
        with pytest.raises(SafetyViolation) as excinfo:
            proxies["ur3e"].move_to_location("dosing_interior")
        report = FailSafePolicy(proxies).recover(excinfo.value.alert)
        assert report.triggering_alert is excinfo.value.alert


class TestProximitySensor:
    ZONE = Cuboid((0.2, -0.2, 0.0), (0.5, 0.2, 0.5), name="shared_zone")

    def _wire_sensor(self, deck, rabit):
        sensor = ProximitySensor("curtain", zones={"ur3e": self.ZONE})
        deck.world.add_device(sensor)
        rabit.devices["curtain"] = sensor
        rabit.rulebase.add(
            make_proximity_rule({"curtain": sensor}, robots={"ur3e": deck.ur3e})
        )
        rabit.initialize()  # pick up the sensor's initial reading
        return sensor

    def test_sensor_is_fifth_device_kind(self):
        sensor = ProximitySensor("s", zones={"arm": self.ZONE})
        assert sensor.kind is DeviceKind.SENSOR
        assert sensor.status() == {"occupied": False}

    def test_empty_zone_allows_moves(self, wired):
        deck, rabit, proxies = wired
        self._wire_sensor(deck, rabit)
        proxies["ur3e"].move_to_location("grid_a1_safe")  # inside the zone
        assert rabit.alert_count == 0

    def test_occupied_zone_vetoes_entry(self, wired):
        deck, rabit, proxies = wired
        sensor = self._wire_sensor(deck, rabit)
        sensor.person_enters()
        with pytest.raises(SafetyViolation, match="occupied"):
            proxies["ur3e"].move_to_location("grid_a1_safe")
        assert rabit.last_alert().rule_id == "S1"

    def test_zone_frees_after_person_leaves(self, wired):
        deck, rabit, proxies = wired
        sensor = self._wire_sensor(deck, rabit)
        sensor.person_enters()
        with pytest.raises(SafetyViolation):
            proxies["ur3e"].move_to_location("grid_a1_safe")
        sensor.person_leaves()
        # The next FetchState refreshes the bit; any command does.
        proxies["dosing_device"].open_door()
        proxies["ur3e"].move_to_location("grid_a1_safe")
        assert rabit.last_alert().rule_id == "S1"  # no new alerts since

    def test_path_through_zone_vetoed(self, wired):
        deck, rabit, proxies = wired
        sensor = self._wire_sensor(deck, rabit)
        proxies["ur3e"].move_to_location([0.1, -0.3, 0.3])  # outside zone
        sensor.person_enters()
        proxies["dosing_device"].open_door()  # refresh the sensor bit
        with pytest.raises(SafetyViolation, match="would cross"):
            # Target outside the zone, but the straight path crosses it.
            proxies["ur3e"].move_to_location([0.45, 0.3, 0.3])

    def test_stuck_sensor_reproduces_false_alarms(self, wired):
        # The Berlinguette complaint: flaky sensors alarm constantly.
        deck, rabit, proxies = wired
        sensor = self._wire_sensor(deck, rabit)
        sensor.stick_reading(True)  # zone actually empty
        proxies["dosing_device"].open_door()
        with pytest.raises(SafetyViolation):
            proxies["ur3e"].move_to_location("grid_a1_safe")
        sensor.stick_reading(None)

    def test_sensor_requires_a_zone(self):
        with pytest.raises(ValueError, match="at least one zone"):
            ProximitySensor("s", zones={})
