"""Tests for the RATracer-substitute interception layer."""

import pytest

from repro.core.actions import ActionLabel
from repro.core.clock import VirtualClock
from repro.core.errors import SafetyViolation
from repro.core.interceptor import BASELINE_DURATION, instrument
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


@pytest.fixture()
def wired():
    deck = build_hein_deck()
    rabit, proxies, trace = make_rabit(deck)
    return deck, rabit, proxies, trace


class TestResolution:
    def test_move_resolves_location_and_target(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["ur3e"].move_to_location("grid_a1_safe")
        record = trace[-1]
        assert record.label is ActionLabel.MOVE_ROBOT
        assert record.location == "grid_a1_safe"
        assert record.device == "ur3e"

    def test_interior_move_resolves_to_move_inside(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["dosing_device"].open_door()
        proxies["ur3e"].move_to_location("dosing_approach")
        proxies["ur3e"].move_to_location("dosing_interior")
        assert trace[-1].label is ActionLabel.MOVE_ROBOT_INSIDE

    def test_raw_coordinates_resolve_to_move(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["ur3e"].move_to_location([0.3, 0.1, 0.2])
        record = trace[-1]
        assert record.label is ActionLabel.MOVE_ROBOT
        assert record.location is None

    def test_pick_place_labels(self, wired):
        deck, rabit, proxies, trace = wired
        ur3e = proxies["ur3e"]
        ur3e.move_to_location("grid_a1_safe")
        ur3e.pick_up_vial("grid_a1")
        assert trace[-1].label is ActionLabel.PICK_OBJECT
        ur3e.move_to_location("grid_a1_safe")
        ur3e.place_vial("grid_a1")
        assert trace[-1].label is ActionLabel.PLACE_OBJECT

    def test_door_and_dosing_labels(self, wired):
        deck, rabit, proxies, trace = wired
        dosing = proxies["dosing_device"]
        dosing.set_door("state", "open")
        assert trace[-1].label is ActionLabel.OPEN_DOOR
        dosing.set_door("state", "closed")
        assert trace[-1].label is ActionLabel.CLOSE_DOOR

    def test_vial_commands(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["vial_1"].decap_vial()
        assert trace[-1].label is ActionLabel.DECAP
        proxies["vial_1"].cap_vial()
        assert trace[-1].label is ActionLabel.CAP

    def test_action_device_value_extraction(self, wired):
        deck, rabit, proxies, trace = wired
        with pytest.raises(SafetyViolation):
            # G5 fires (nothing loaded), which proves the value and label
            # were resolved and checked before execution.
            proxies["hotplate"].stir_solution(60.0)
        assert trace[-1].label is ActionLabel.START_ACTION
        assert trace[-1].alert is not None

    def test_rotor_direction(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["centrifuge"].rotate_rotor("E")
        assert trace[-1].label is ActionLabel.ROTATE_ROTOR
        assert rabit.state.get("red_dot", "centrifuge") == "E"


class TestPassthrough:
    def test_status_is_untraced(self, wired):
        deck, rabit, proxies, trace = wired
        before = len(trace)
        proxies["ur3e"].status()
        assert len(trace) == before

    def test_attributes_pass_through(self, wired):
        deck, rabit, proxies, trace = wired
        assert proxies["ur3e"].name == "ur3e"
        assert proxies["ur3e"].wrapped is deck.devices["ur3e"]
        assert proxies["dosing_device"].max_dose_mg == 10.0


class TestTraceRecords:
    def test_alerted_command_is_marked(self, wired):
        deck, rabit, proxies, trace = wired
        with pytest.raises(SafetyViolation):
            proxies["ur3e"].move_to_location("dosing_interior")
        record = trace[-1]
        assert record.alert is not None and record.alert.rule_id == "G1"
        assert "!!" in str(record)

    def test_trace_times_monotonic(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["dosing_device"].open_door()
        proxies["ur3e"].move_to_location("grid_a1_safe")
        proxies["dosing_device"].close_door()
        times = [r.time for r in trace]
        assert times == sorted(times)


class TestBaselineCharging:
    def test_unmonitored_proxies_charge_experiment_time(self):
        deck = build_hein_deck()
        clock = VirtualClock()
        proxies, trace = instrument(deck.devices, rabit=None, clock=clock)
        proxies["dosing_device"].open_door()
        expected = (
            deck.devices["dosing_device"].connection.command_latency
            + BASELINE_DURATION[ActionLabel.OPEN_DOOR]
        )
        assert clock.spent("experiment") == pytest.approx(expected)

    def test_every_label_has_a_baseline_duration(self):
        for label in ActionLabel:
            assert label in BASELINE_DURATION


class TestMultipleCommandsPerAction:
    """§V-C: "there is a possibility that multiple commands could be used
    to execute a specific action ... RABIT currently allows only one
    command per action."  The interceptor resolves any number of device
    methods onto one action label, so the limitation does not apply here.
    """

    def test_move_commands_share_one_action(self, wired):
        deck, rabit, proxies, trace = wired
        proxies["ur3e"].move_to_location("grid_a1_safe")
        proxies["ur3e"].move_pose("grid_a1_safe")
        assert trace[-1].label is trace[-2].label is ActionLabel.MOVE_ROBOT

    def test_dosing_commands_share_one_action(self, wired):
        deck, rabit, proxies, trace = wired
        from repro.core.errors import SafetyViolation

        # Both dosing entry points hit the same preconditions: with the
        # door open, each is vetoed by the same rule.
        proxies["dosing_device"].open_door()
        for method in ("run_action", "dose_solid"):
            with pytest.raises(SafetyViolation) as excinfo:
                if method == "run_action":
                    proxies["dosing_device"].run_action(delay=0, quantity=2)
                else:
                    proxies["dosing_device"].dose_solid(2)
            assert excinfo.value.alert.rule_id == "G9"
            assert trace[-1].label is ActionLabel.START_DOSING
