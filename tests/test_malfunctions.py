"""Device-malfunction coverage — Fig. 2 lines 13-15 across fault types.

"If S_actual != S_expected, RABIT assumes that at least one device
malfunctioned and raises an alert."  Each test injects a different
physical fault and checks the expected-vs-actual comparison catches it
through ordinary status commands.
"""

import pytest

from repro.core.errors import AlertKind, SafetyViolation
from repro.core.monitor import RabitOptions
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


def _ferry_vial_into_dosing(px):
    px["vial_1"].decap_vial()
    px["dosing_device"].open_door()
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].pick_up_vial("grid_a1")
    px["ur3e"].move_to_location("grid_a1_safe")
    px["ur3e"].move_to_location("dosing_approach")
    px["ur3e"].place_vial("dosing_interior")
    px["ur3e"].move_to_location("dosing_approach")
    px["dosing_device"].close_door()


class TestDoorJam:
    def test_jammed_door_caught_on_open(self):
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(deck)
        deck.devices["dosing_device"].door.jam()
        with pytest.raises(SafetyViolation) as excinfo:
            px["dosing_device"].open_door()
        assert excinfo.value.alert.kind is AlertKind.DEVICE_MALFUNCTION
        assert "door_status" in excinfo.value.alert.message

    def test_jammed_lid_caught_on_close(self):
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(deck)
        deck.devices["centrifuge"].door.jam()  # lid starts open
        with pytest.raises(SafetyViolation) as excinfo:
            px["centrifuge"].close_door()
        assert excinfo.value.alert.kind is AlertKind.DEVICE_MALFUNCTION


class TestDoserMiscalibration:
    def test_overdispensing_detected_post_execution(self):
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(deck)
        deck.devices["dosing_device"].miscalibrate(1.5)
        _ferry_vial_into_dosing(px)
        with pytest.raises(SafetyViolation) as excinfo:
            px["dosing_device"].dose_solid(5)
        alert = excinfo.value.alert
        assert alert.kind is AlertKind.DEVICE_MALFUNCTION
        assert "dispensed_mg" in alert.message
        # Detection is post-hoc: the material is already dispensed.
        assert deck.vials["vial_1"].contents.solid_mg == pytest.approx(7.5)

    def test_underdispensing_also_detected(self):
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(deck)
        deck.devices["dosing_device"].miscalibrate(0.5)
        _ferry_vial_into_dosing(px)
        with pytest.raises(SafetyViolation) as excinfo:
            px["dosing_device"].dose_solid(5)
        assert excinfo.value.alert.kind is AlertKind.DEVICE_MALFUNCTION

    def test_calibrated_doser_is_silent(self):
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(deck)
        _ferry_vial_into_dosing(px)
        px["dosing_device"].dose_solid(5)
        assert rabit.alert_count == 0

    def test_factor_must_be_positive(self):
        deck = build_hein_deck()
        with pytest.raises(ValueError):
            deck.devices["dosing_device"].miscalibrate(0.0)


class TestFailSafeAfterMalfunction:
    def test_state_adoption_keeps_monitoring_consistent(self):
        # After a malfunction alert in fail-safe (non-raising) mode, the
        # monitor adopts S_actual (Fig. 2 line 16) so subsequent checks
        # reason from reality, not from the failed expectation.
        deck = build_hein_deck()
        rabit, px, _ = make_rabit(
            deck, options=RabitOptions.modified(preemptive_stop=False)
        )
        deck.devices["dosing_device"].door.jam()
        px["dosing_device"].open_door()  # jammed: stays closed
        assert rabit.alert_count == 1
        assert rabit.state.get("door_status", "dosing_device") == "closed"
        # A move into the device is now (correctly) blocked by G1 on the
        # *actual* door state.
        px["ur3e"].move_to_location("dosing_interior")
        assert rabit.last_alert().rule_id == "G1"
