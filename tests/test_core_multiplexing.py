"""Tests for time and space multiplexing of multiple arms."""

import pytest

from repro.core.errors import SafetyViolation
from repro.core.multiplexing import SpaceMultiplexer, TimeMultiplexer
from repro.geometry.walls import SoftwareWall
from repro.lab.decks import make_rabit
from repro.testbed.deck import (
    attach_space_multiplexing,
    attach_time_multiplexing,
    build_testbed_deck,
    sleep_footprints,
)


@pytest.fixture()
def wired():
    deck = build_testbed_deck()
    rabit, proxies, _ = make_rabit(deck)
    return deck, rabit, proxies


class TestSleepFootprints:
    def test_footprints_cover_both_frames(self, wired):
        deck, rabit, proxies = wired
        footprints = sleep_footprints(deck)
        assert set(footprints) == {"viperx", "ned2"}
        for frames in footprints.values():
            assert set(frames) == {"viperx", "ned2"}

    def test_own_frame_footprint_contains_sleep_pose(self, wired):
        deck, rabit, proxies = wired
        footprints = sleep_footprints(deck)
        sleep_ee = deck.viperx.kinematics.chain.end_effector_position(
            deck.viperx.profile.sleep_q
        )
        assert footprints["viperx"]["viperx"].contains(sleep_ee)


class TestTimeMultiplexing:
    def test_second_robot_vetoed_while_first_awake(self, wired):
        deck, rabit, proxies = wired
        attach_time_multiplexing(rabit, deck)
        proxies["viperx"].go_to_home_pose()  # viperx wakes
        with pytest.raises(SafetyViolation, match="time multiplexing"):
            proxies["ned2"].go_to_home_pose()

    def test_handoff_after_sleep(self, wired):
        deck, rabit, proxies = wired
        mux = attach_time_multiplexing(rabit, deck)
        proxies["viperx"].go_to_home_pose()
        assert mux.awake == ("viperx",)
        proxies["viperx"].go_to_sleep_pose()
        assert mux.awake == ()
        proxies["ned2"].go_to_home_pose()  # now allowed
        assert mux.awake == ("ned2",)

    def test_sleeping_arm_becomes_obstacle(self, wired):
        deck, rabit, proxies = wired
        attach_time_multiplexing(rabit, deck)
        names = {c.name for c in rabit.model.obstacles_for_frame("viperx")}
        assert "sleeping_ned2" in names and "sleeping_viperx" in names
        proxies["viperx"].go_to_home_pose()
        names = {c.name for c in rabit.model.obstacles_for_frame("ned2")}
        assert "sleeping_viperx" not in names  # awake arms are not cuboids
        assert "sleeping_ned2" in names

    def test_unknown_robot_footprint_rejected(self, wired):
        deck, rabit, proxies = wired
        with pytest.raises(ValueError, match="unknown robots"):
            TimeMultiplexer(rabit, {"kuka": {}})

    def test_safe_workflow_unaffected(self):
        from repro.workflow import build_context, build_preset, execute_dag

        dag = build_preset("testbed_fig5")
        ctx = build_context(dag.deck, dag.deck_params, dag.prepare)
        attach_time_multiplexing(ctx.rabit, ctx.deck)
        result = execute_dag(dag, ctx)
        assert result.completed and ctx.rabit.alert_count == 0


class TestSpaceMultiplexing:
    def test_wall_vetoes_cross_midline_move(self, wired):
        deck, rabit, proxies = wired
        attach_space_multiplexing(rabit, deck)
        with pytest.raises(SafetyViolation, match="deck_divider"):
            # Ned2 commanded across the world x = 0.47 midline.
            proxies["ned2"].move_pose([0.365, -0.010, 0.192])

    def test_own_side_moves_allowed(self, wired):
        deck, rabit, proxies = wired
        attach_space_multiplexing(rabit, deck)
        proxies["ned2"].move_to_location("grid_ne_ned2_safe")
        proxies["viperx"].move_to_location("grid_nw_viperx_safe")
        assert rabit.alert_count == 0

    def test_concurrent_motion_is_legal(self, wired):
        # Unlike time multiplexing, both arms may be awake at once.
        deck, rabit, proxies = wired
        attach_space_multiplexing(rabit, deck)
        proxies["viperx"].go_to_home_pose()
        proxies["ned2"].go_to_home_pose()
        assert rabit.alert_count == 0

    def test_unknown_frame_rejected(self, wired):
        deck, rabit, proxies = wired
        with pytest.raises(ValueError, match="unknown robot frames"):
            SpaceMultiplexer(rabit, {"kuka": SoftwareWall((1, 0, 0), 0.5)})

    def test_dividing_wall_builder(self):
        walls = SpaceMultiplexer.dividing_wall_for_frames(
            axis=0,
            boundary_in_frame={"a": 0.5, "b": 0.3},
            keep_below={"a": True, "b": False},
        )
        assert walls["a"].allows([0.4, 0, 0])
        assert not walls["a"].allows([0.6, 0, 0])
        assert walls["b"].allows([0.4, 0, 0])
        assert not walls["b"].allows([0.2, 0, 0])
