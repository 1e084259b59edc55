"""Edge-case coverage across small public APIs."""

import pytest

from repro.core.actions import ActionLabel, TransitionTable
from repro.core.clock import VirtualClock
from repro.core.model import DeviceModel, ObstacleModel, RabitLabModel
from repro.core.rulebase import build_default_rulebase
from repro.devices.base import DeviceKind
from repro.geometry.shapes import Cuboid


class TestVirtualClock:
    def test_advance_and_breakdown(self):
        clock = VirtualClock()
        clock.advance(1.0, "a")
        clock.advance(2.0, "b")
        clock.advance(0.5, "a")
        assert clock.now == pytest.approx(3.5)
        assert clock.breakdown() == {"a": 1.5, "b": 2.0}
        assert clock.spent("missing") == 0.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError, match="backwards"):
            VirtualClock().advance(-1.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(5.0, "x")
        clock.reset()
        assert clock.now == 0.0 and clock.breakdown() == {}


class TestModelRegistry:
    def _model(self):
        model = RabitLabModel("m")
        model.add_device(
            DeviceModel("arm", DeviceKind.ROBOT_ARM, "RobotArmDevice", frame="arm")
        )
        return model

    def test_duplicate_device_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="duplicate device"):
            model.add_device(
                DeviceModel("arm", DeviceKind.ROBOT_ARM, "RobotArmDevice")
            )

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError, match="not in configuration"):
            self._model().device("ghost")

    def test_remove_obstacle_is_idempotent(self):
        model = self._model()
        model.add_obstacle(
            ObstacleModel("box", frames={"arm": Cuboid((0, 0, 0), (1, 1, 1))})
        )
        model.remove_obstacle("box")
        model.remove_obstacle("box")  # no error
        assert model.obstacles_for_frame("arm") == []

    def test_obstacles_filtered_by_frame(self):
        model = self._model()
        model.add_obstacle(
            ObstacleModel("box", frames={"other": Cuboid((0, 0, 0), (1, 1, 1))})
        )
        assert model.obstacles_for_frame("arm") == []
        assert len(model.obstacles_for_frame("other")) == 1

    def test_interior_owner_of_unknown_location(self):
        assert self._model().interior_owner("nowhere") is None

    def test_load_location_of_unknown_device(self):
        assert self._model().load_location("ghost") is None


class TestRuleBaseApi:
    def test_get_unknown_rule(self):
        with pytest.raises(KeyError, match="unknown rule"):
            build_default_rulebase([]).get("G99")

    def test_exclude_filters(self):
        rulebase = build_default_rulebase([], exclude=("G1", "G3"))
        ids = {r.rule_id for r in rulebase.rules()}
        assert "G1" not in ids and "G3" not in ids and "G2" in ids

    def test_unknown_custom_ids_ignored(self):
        rulebase = build_default_rulebase(["C1", "C99"])
        ids = {r.rule_id for r in rulebase.rules()}
        assert "C1" in ids and "C99" not in ids


class TestProxyKwargs:
    def test_move_accepts_keyword_ref(self):
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck

        deck = build_hein_deck()
        rabit, proxies, trace = make_rabit(deck)
        proxies["ur3e"].move_to_location(ref="grid_a1_safe")
        assert trace[-1].location == "grid_a1_safe"

    def test_dosing_keyword_quantity(self):
        from repro.core.errors import SafetyViolation
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck

        deck = build_hein_deck()
        rabit, proxies, trace = make_rabit(deck)
        # Door open -> G9 veto proves the kwargs-resolved quantity went
        # through the full guard path.
        proxies["dosing_device"].open_door()
        with pytest.raises(SafetyViolation):
            proxies["dosing_device"].run_action(delay=1, quantity=3.0)
        assert trace[-1].label is ActionLabel.START_DOSING


class TestTransitionTableApi:
    def test_unknown_label_raises(self):
        table = TransitionTable()

        class FakeLabel:
            pass

        with pytest.raises(KeyError, match="no transition row"):
            table.row(FakeLabel())
