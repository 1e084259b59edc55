"""Tests for the Fig. 2 monitor loop, using the Hein deck end to end."""

import pytest

from repro.core.actions import ActionLabel
from repro.core.errors import AlertKind, SafetyViolation
from repro.core.monitor import RabitOptions
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


class TestInitialization:
    def test_initialize_acquires_observables(self):
        deck = build_hein_deck()
        rabit, _, _ = make_rabit(deck)
        # S_initial includes the dosing device's closed door and the
        # centrifuge's open lid, straight from status commands.
        assert rabit.state.get("door_status", "dosing_device") == "closed"
        assert rabit.state.get("door_status", "centrifuge") == "open"
        assert rabit.state.get("red_dot", "centrifuge") == "N"

    def test_seeded_inventory_survives_initialize(self):
        deck = build_hein_deck()
        rabit, _, _ = make_rabit(deck)
        assert rabit.state.get("container_at", "vial_1") == "grid_a1"
        assert rabit.state.get("container_solid", "vial_1") == 0.0


class TestGuardFlow:
    def test_precondition_alert_prevents_execution(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        with pytest.raises(SafetyViolation) as excinfo:
            proxies["ur3e"].move_to_location("dosing_interior")
        assert excinfo.value.alert.kind is AlertKind.INVALID_COMMAND
        assert excinfo.value.alert.rule_id == "G1"
        # The arm never moved; ground truth recorded nothing.
        assert not deck.world.damage_log
        assert not deck.world.robot_inside("ur3e")

    def test_alert_log_grows(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        with pytest.raises(SafetyViolation):
            proxies["hotplate"].stir_solution(60)  # G5: nothing loaded
        assert rabit.alert_count == 1
        assert rabit.last_alert().rule_id == "G5"

    def test_failsafe_mode_logs_without_raising(self):
        deck = build_hein_deck()
        options = RabitOptions.modified(preemptive_stop=False)
        rabit, proxies, _ = make_rabit(deck, options=options)
        proxies["hotplate"].stir_solution(60)  # violates G5, no exception
        assert rabit.alert_count == 1
        # The vetoed command was still skipped: the hotplate never ran.
        assert not deck.devices["hotplate"].active

    def test_safe_command_updates_state(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        proxies["dosing_device"].open_door()
        assert rabit.state.get("door_status", "dosing_device") == "open"


class TestDeviceMalfunction:
    def test_jammed_door_raises_malfunction(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        deck.devices["dosing_device"].door.jam()
        with pytest.raises(SafetyViolation) as excinfo:
            proxies["dosing_device"].open_door()
        alert = excinfo.value.alert
        assert alert.kind is AlertKind.DEVICE_MALFUNCTION
        assert "door_status" in alert.message

    def test_malfunction_adopts_actual_state(self):
        deck = build_hein_deck()
        options = RabitOptions.modified(preemptive_stop=False)
        rabit, proxies, _ = make_rabit(deck, options=options)
        deck.devices["dosing_device"].door.jam()
        proxies["dosing_device"].open_door()
        assert rabit.alert_count == 1
        # Line 16 of Fig. 2: S_current <- S_actual (door still closed).
        assert rabit.state.get("door_status", "dosing_device") == "closed"

    def test_silent_skip_is_invisible(self):
        # The §IV category-4 ViperX behaviour transplanted to the monitor:
        # a skipped move leaves no observable discrepancy, because
        # position is not a tracked state variable.
        from repro.testbed.deck import build_testbed_deck

        deck = build_testbed_deck()
        rabit, proxies, _ = make_rabit(deck)
        proxies["viperx"].move_to_location([0.62, -0.38, 0.35])  # unreachable
        assert rabit.alert_count == 0


class TestLatencyAccounting:
    def test_bookkeeping_charged_per_command(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        before = rabit.clock.spent("rabit_bookkeeping")
        proxies["dosing_device"].open_door()
        assert rabit.clock.spent("rabit_bookkeeping") > before

    def test_gui_charged_only_with_simulator(self):
        deck = build_hein_deck()
        options = RabitOptions.modified(use_extended_simulator=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        proxies["dosing_device"].open_door()
        assert rabit.clock.spent("rabit_simulator_gui") >= 2.0

        deck2 = build_hein_deck()
        rabit2, proxies2, _ = make_rabit(deck2)
        proxies2["dosing_device"].open_door()
        assert rabit2.clock.spent("rabit_simulator_gui") == 0.0

    def test_gui_bypass(self):
        deck = build_hein_deck()
        options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        proxies["dosing_device"].open_door()
        assert rabit.clock.spent("rabit_simulator_gui") == 0.0


class TestExtraPreconditions:
    def test_registered_precondition_vetoes(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        rabit.model.extra_preconditions.append(
            lambda state, call: "curfew" if call.label is ActionLabel.OPEN_DOOR else None
        )
        with pytest.raises(SafetyViolation, match="curfew"):
            proxies["dosing_device"].open_door()

    def test_observers_called_after_execution(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        seen = []
        rabit.observers.append(lambda call: seen.append(call.label))
        proxies["dosing_device"].open_door()
        assert seen == [ActionLabel.OPEN_DOOR]
