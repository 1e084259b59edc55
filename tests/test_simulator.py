"""Tests for the Extended Simulator and its renderer."""

import numpy as np
import pytest

from repro.core.actions import ActionCall, ActionLabel
from repro.core.errors import AlertKind, SafetyViolation
from repro.core.monitor import RabitOptions
from repro.core.state import LabState
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.kinematics.arm import ArmKinematics
from repro.kinematics.profiles import UR3E
from repro.simulator.extended import ExtendedSimulator
from repro.testbed.deck import build_testbed_deck


class TestExtendedSimulatorChecks:
    def _checker_and_model(self):
        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        checker = ExtendedSimulator({"ur3e": deck.ur3e})
        return deck, rabit, checker

    def test_clear_trajectory_passes(self):
        deck, rabit, checker = self._checker_and_model()
        call = ActionCall(
            ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(0.3, -0.05, 0.28),
            location="grid_a1_safe",
        )
        assert checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        ) is None

    def test_path_through_obstacle_detected(self):
        deck, rabit, checker = self._checker_and_model()
        # Start the arm on the far side so the straight path crosses the
        # thermoshaker cuboid at low height.
        deck.ur3e.kinematics.execute(deck.ur3e.kinematics.plan_move([0.35, 0.12, 0.08]))
        call = ActionCall(
            ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(0.12, 0.38, 0.08)
        )
        problem = checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        )
        assert problem is not None and "thermoshaker" in problem

    def test_held_vial_extent_only_when_enabled(self):
        deck, rabit, checker = self._checker_and_model()
        rabit.state.set("robot_holding", "ur3e", "vial_1")
        # Target above the grid top (0.05): bare gripper clears at
        # z = 0.09, but a held vial reaches 3 cm lower.
        call = ActionCall(
            ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(0.30, -0.05, 0.09)
        )
        with_held = checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        )
        without = checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=False
        )
        assert with_held is not None and "vial_1" in with_held
        assert without is None

    def test_entered_device_excluded_when_door_open(self):
        deck, rabit, checker = self._checker_and_model()
        rabit.state.set("door_status", "dosing_device", "open")
        call = ActionCall(
            ActionLabel.MOVE_ROBOT_INSIDE, "ur3e", robot="ur3e",
            location="dosing_interior", target=(0.0, 0.38, 0.12),
        )
        assert checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        ) is None

    def test_unplannable_move_yields_no_trajectory(self):
        deck, rabit, checker = self._checker_and_model()
        call = ActionCall(
            ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(3.0, 0.0, 0.2)
        )
        assert checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        ) is None

    def test_unknown_robot_ignored(self):
        deck, rabit, checker = self._checker_and_model()
        call = ActionCall(ActionLabel.MOVE_ROBOT, "ghost", robot="ghost")
        assert checker.validate_trajectory(
            call, LabState(), rabit.model, account_held_objects=True
        ) is None


class TestPlanSharing:
    """The arm executes the plan the Extended Simulator swept.

    The simulator plans each move from the arm's polled posture; a
    noise-free arm then plans the same move from the same posture, and
    gets the same plan back instead of a second IK cascade.  A fresh
    deck's arm shares the cache, so it replays the move as well."""

    LOCATION = "grid_a1_safe"

    @staticmethod
    def _guarded_hein():
        deck = build_hein_deck()
        options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        return deck, rabit, proxies

    @staticmethod
    def _record(monkeypatch, kin):
        planned, executed = [], []
        plan_move, execute = kin.plan_move, kin.execute

        def recording_plan(*args, **kwargs):
            planned.append(plan_move(*args, **kwargs))
            return planned[-1]

        def recording_execute(plan):
            executed.append(plan)
            return execute(plan)

        monkeypatch.setattr(kin, "plan_move", recording_plan)
        monkeypatch.setattr(kin, "execute", recording_execute)
        return planned, executed

    def test_guarded_move_runs_one_ik_cascade(self, cold_plan_cache, ik_solves):
        deck, rabit, proxies = self._guarded_hein()
        target, _ = deck.ur3e.resolve_location(self.LOCATION)
        # The length of one cascade from this posture, on an unguarded
        # twin arm; then the cache is emptied again.
        ArmKinematics(UR3E, ik_seed=deck.ur3e.kinematics.q).plan_move(target)
        cascade = len(ik_solves)
        assert cascade >= 1
        cold_plan_cache()
        ik_solves.clear()

        proxies["ur3e"].move_to_location(self.LOCATION)
        assert rabit.alert_count == 0
        assert len(ik_solves) == cascade
        assert np.linalg.norm(deck.ur3e.kinematics.current_position() - target) < 0.005

        # A second deck's sweep and execution both replay the plan.
        ik_solves.clear()
        again, rabit_again, proxies_again = self._guarded_hein()
        proxies_again["ur3e"].move_to_location(self.LOCATION)
        assert rabit_again.alert_count == 0
        assert ik_solves == []
        assert again.ur3e.kinematics.q == deck.ur3e.kinematics.q

    def test_device_executes_the_swept_plan(self, monkeypatch):
        deck, rabit, proxies = self._guarded_hein()
        planned, executed = self._record(monkeypatch, deck.ur3e.kinematics)
        proxies["ur3e"].move_to_location(self.LOCATION)
        assert len(planned) == 2  # the simulator's sweep, then the device
        assert planned[1] is planned[0]
        assert len(executed) == 1 and executed[0] is planned[0]

    def test_protective_stop_replans_from_the_stalled_posture(self):
        deck = build_hein_deck()
        kin = deck.ur3e.kinematics
        kin.execute(kin.plan_move([0.35, 0.12, 0.08]))
        target = (0.12, 0.38, 0.08)  # straight through the thermoshaker
        swept = kin.plan_move(target)
        deck.ur3e.move_to_location(target)
        assert deck.ur3e.stalled
        assert kin.q != swept.trajectory.q_start
        replanned = kin.plan_move(target)
        assert replanned is not swept
        assert replanned.trajectory.q_start == kin.q

    def test_noisy_arm_plans_its_own_noisy_target(self, monkeypatch):
        deck = build_testbed_deck(noise_sigma=0.002)
        options = RabitOptions.modified(use_extended_simulator=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        planned, executed = self._record(monkeypatch, deck.viperx.kinematics)
        proxies["viperx"].move_to_location("grid_nw_viperx_safe")
        assert len(planned) == 2
        swept, own = planned
        assert own is not swept and own.target != swept.target
        assert len(executed) == 1 and executed[0] is own


class TestSilentSkipScenario:
    def test_es_catches_post_skip_collision(self):
        """Footnote 2 end-to-end: B' silently skipped, A->C sweeps into
        the thermoshaker mockup; only the Extended Simulator notices."""
        deck = build_testbed_deck()
        options = RabitOptions.modified(use_extended_simulator=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        viperx = proxies["viperx"]
        viperx.move_to_location("grid_nw_viperx_safe")  # A
        viperx.move_to_location([0.62, -0.38, 0.35])  # B': skipped silently
        with pytest.raises(SafetyViolation) as excinfo:
            viperx.move_to_location([0.37, -0.46, 0.10])  # C
        assert excinfo.value.alert.kind is AlertKind.INVALID_TRAJECTORY

    def test_without_es_the_same_sequence_is_missed(self):
        deck = build_testbed_deck()
        rabit, proxies, _ = make_rabit(deck)
        viperx = proxies["viperx"]
        viperx.move_to_location("grid_nw_viperx_safe")
        viperx.move_to_location([0.62, -0.38, 0.35])
        viperx.move_to_location([0.37, -0.46, 0.10])
        assert rabit.alert_count == 0
        assert any(d.kind == "arm_collision" for d in deck.world.damage_log)


class TestTopdownRenderer:
    """The terminal stand-in for the Fig. 3 deck view."""

    @pytest.fixture(scope="class")
    def rendering(self):
        from repro.lab.hein import build_hein_deck
        from repro.simulator.render import render_topdown

        deck = build_hein_deck()
        make_rabit(deck)
        return render_topdown(deck.model, "ur3e", robot=deck.ur3e)

    def test_every_device_appears_in_legend(self, rendering):
        for name in ("dosing_device", "centrifuge", "hotplate", "grid",
                     "thermoshaker", "syringe_pump", "platform"):
            assert name in rendering

    def test_arm_marker_present(self, rendering):
        assert "@" in rendering and "ur3e gripper" in rendering

    def test_locations_marked(self, rendering):
        assert "*" in rendering and "named location" in rendering

    def test_refined_shapes_render_round(self):
        # A hemispherical centrifuge occupies fewer cells than its
        # bounding cuboid — the renderer probes contains(), not boxes.
        from repro.core.config import build_model
        from repro.lab.hein import build_hein_deck
        from repro.simulator.render import render_topdown

        config = build_hein_deck().config
        for obs in config["obstacles"]:
            if obs["name"] == "centrifuge":
                obs["frames"]["ur3e"] = {
                    "type": "cylinder",
                    "center_xy": [0.0, -0.38],
                    "z_range": [0.0, 0.25],
                    "radius": 0.10,
                }
        refined = render_topdown(build_model(config), "ur3e")
        cuboid = render_topdown(build_model(build_hein_deck().config), "ur3e")
        assert refined.count("C") < cuboid.count("C")

    def test_empty_frame_renders(self):
        from repro.core.model import RabitLabModel
        from repro.simulator.render import render_topdown

        text = render_topdown(RabitLabModel("empty"), "nowhere")
        assert "top-down" in text
