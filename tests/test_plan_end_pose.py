"""Plans carry their end pose: forward kinematics runs once per plan.

A :class:`~repro.kinematics.arm.TrajectoryPlan` holds the end-effector
position of its ``q_end``, computed when the plan is built.  The
Extended Simulator's sweep, the device's ground truth and
``ArmKinematics.execute`` read it, so a guarded move that replays a
cached plan runs no forward kinematics at all.  These tests pin that the
carried pose is the FK of ``q_end`` bit for bit, for every plan the
shared per-mount cache holds, that a cached home or sleep plan is the
plan a fresh planner builds, and count the FK calls of a replayed move.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.monitor import RabitOptions
from repro.devices.robot import RobotArmDevice
from repro.kinematics import arm as arm_module
from repro.kinematics.arm import ArmKinematics, TrajectoryPlan, UnreachableTargetError
from repro.kinematics.dh import DHChain
from repro.kinematics.profiles import N9, NED2, UR3E, UR5E, VIPERX_300
from repro.kinematics.trajectory import plan_joint_trajectory
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.serve.session import default_serve_options
from repro.simulator.extended import ExtendedSimulator
from repro.workflow.presets import build_preset, preset_matrix, run_preset


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_carries_fk(plan, chain):
    assert all(type(x) is float for x in plan.end_position), plan.end_position
    fk = chain.end_effector_position(plan.trajectory.q_end)
    assert _bits(plan.end_position) == _bits(fk)


class TestSharedPlanCacheEndPose:
    """Every plan the shared cache replays carries the FK of its ``q_end``."""

    def test_cached_plans_carry_their_end_pose(self, cold_plan_cache):
        for name, params in preset_matrix():
            if build_preset(name, params).deck in ("hein", "testbed"):
                run_preset(name, params, options=default_serve_options())
        for profile in (UR3E, NED2, VIPERX_300):  # VIPERX caches a skip plan
            try:
                ArmKinematics(profile).plan_move((0.0, 0.0, 5.0))
            except UnreachableTargetError:
                pass

        seen = {"plan": 0, "skip": 0}
        for mount in arm_module._MOUNTS.values():
            for cached in mount.plans.values():
                if not isinstance(cached, TrajectoryPlan):
                    continue
                seen["skip" if cached.skipped else "plan"] += 1
                _assert_carries_fk(cached, mount.chain)
        assert seen["plan"] > 40 and seen["skip"] >= 1, seen

    def test_skip_plan_stays_at_the_current_pose(self, cold_plan_cache):
        arm = ArmKinematics(VIPERX_300)
        plan = arm.plan_move((0.0, 0.0, 5.0))
        assert plan.skipped
        _assert_carries_fk(plan, arm.chain)
        assert _bits(plan.end_position) == _bits(arm.current_position())

    @pytest.mark.parametrize("profile", [UR3E, UR5E, VIPERX_300, NED2, N9])
    def test_posture_plans_carry_their_end_pose(self, profile):
        arm = ArmKinematics(profile)
        for plan in (arm.plan_sleep(), arm.plan_home()):
            _assert_carries_fk(plan, arm.chain)
            assert plan.target == plan.end_position
            arm.execute(plan)

    @pytest.mark.parametrize("profile", [UR3E, UR5E, VIPERX_300, NED2, N9])
    def test_execute_leaves_the_fresh_fk_position(self, profile):
        arm = ArmKinematics(profile)
        for step in ((-0.02, 0.0, -0.03), None, (0.0, 0.02, 0.0)):
            if step is None:
                plan = arm.plan_sleep()
            else:
                plan = arm.plan_move(arm.current_position() + step)
            returned = arm.execute(plan)
            fresh = arm.chain.end_effector_position(arm.q)
            assert _bits(arm.current_position()) == _bits(fresh)
            assert _bits(returned) == _bits(fresh)
            # current_position hands out copies of the carried pose.
            arm.current_position()[0] = np.nan
            assert _bits(arm.current_position()) == _bits(fresh)


def _assert_same_plan(plan, other):
    """Bit for bit: trajectory, target, end pose, skip flag, residual."""
    assert plan.trajectory.chain is other.trajectory.chain
    for field in ("q_start", "q_end", "duration"):
        assert _bits(getattr(plan.trajectory, field)) == _bits(getattr(other.trajectory, field))
    assert _bits(plan.target) == _bits(other.target)
    assert _bits(plan.end_position) == _bits(other.end_position)
    assert (plan.skipped, plan.residual) == (other.skipped, other.residual)


class TestCachedPosturePlans:
    """Home and sleep plans go through the mount's plan cache."""

    @pytest.mark.parametrize("profile", [UR3E, UR5E, VIPERX_300, NED2, N9])
    def test_cached_posture_plan_equals_a_fresh_one(self, profile, cold_plan_cache):
        arm = ArmKinematics(profile)
        arm.execute(arm.plan_move(arm.current_position() + (-0.02, 0.0, -0.03)))
        for q_end in (profile.sleep_q, profile.home_q):
            cached = arm.plan_posture(q_end)
            # Any arm of the mount at the same posture replays it.
            twin = ArmKinematics(profile, ik_seed=arm.q)
            assert twin.plan_posture(list(q_end)) is cached
            cold_plan_cache()
            fresh = arm.plan_posture(q_end)
            assert fresh is not cached
            _assert_same_plan(cached, fresh)
            trajectory = plan_joint_trajectory(arm.chain, arm.q, q_end)
            end = tuple(arm.chain.end_effector_position(q_end).tolist())
            _assert_same_plan(
                cached, TrajectoryPlan(trajectory, end, False, 0.0, end)
            )
            # Another speed is another plan.
            assert arm.plan_posture(q_end, speed=0.5) is not fresh

    def test_posture_and_move_keys_never_meet(self, cold_plan_cache):
        # On a 3-joint arm, (posture, q_end, speed) and (posture, target,
        # speed) are equally long: a posture whose joint values equal a
        # move target's coordinates must still get its own plan.
        three = replace(
            UR3E,
            name="ur3e_three_joints",
            links=UR3E.links[:3],
            joint_limits=UR3E.joint_limits[:3],
            home_q=UR3E.home_q[:3],
            sleep_q=UR3E.sleep_q[:3],
        )
        arm = ArmKinematics(three)
        values = (0.1, -0.2, 0.3)
        try:
            arm.plan_move(values)
        except UnreachableTargetError:
            pass
        plan = arm.plan_posture(values)
        assert isinstance(plan, TrajectoryPlan)
        assert plan.trajectory.q_end == values
        _assert_carries_fk(plan, arm.chain)


class TestReplayedMoveRunsNoFK:
    """A guarded move that replays a cached plan calls ``DHChain.forward``
    nowhere: not in the simulator's sweep, the device's ground truth, or
    ``execute``."""

    LOCATION = "grid_a1_safe"

    @staticmethod
    def _guarded_hein():
        deck = build_hein_deck()
        options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
        rabit, proxies, _ = make_rabit(deck, options=options)
        return deck, rabit, proxies

    def test_replayed_guarded_move_makes_no_fk_calls(self, monkeypatch, ik_solves):
        first, first_rabit, first_proxies = self._guarded_hein()
        first_proxies["ur3e"].move_to_location(self.LOCATION)
        assert first_rabit.alert_count == 0

        deck, rabit, proxies = self._guarded_hein()
        rabit.initialize()  # the first FetchState polls the home position
        forward_calls = []
        forward = DHChain.forward

        def counting_forward(chain, q):
            forward_calls.append(tuple(q))
            return forward(chain, q)

        monkeypatch.setattr(DHChain, "forward", counting_forward)
        ik_solves.clear()
        proxies["ur3e"].move_to_location(self.LOCATION)

        assert rabit.alert_count == 0
        assert rabit.facts.sweep is not None and rabit.facts.sweep.verdict is None
        assert ik_solves == []  # the move replayed the first deck's plan
        assert deck.ur3e.kinematics.q == first.ur3e.kinematics.q
        assert forward_calls == []

    @pytest.mark.parametrize(
        "commands",
        [("go_to_sleep_pose",), ("go_to_sleep_pose", "go_to_home_pose")],
        ids=["sleep", "home"],
    )
    def test_replayed_guarded_posture_move_makes_no_fk_calls(self, monkeypatch, commands):
        first, first_rabit, first_proxies = self._guarded_hein()
        for method in commands:
            getattr(first_proxies["ur3e"], method)()
        assert first_rabit.alert_count == 0

        deck, rabit, proxies = self._guarded_hein()
        rabit.initialize()  # the first FetchState polls the home position
        for method in commands[:-1]:
            getattr(proxies["ur3e"], method)()
        forward_calls, swept, executed = [], [], []
        forward = DHChain.forward
        plan_for = ExtendedSimulator._plan_for
        run_plan = RobotArmDevice._run_plan

        def counting_forward(chain, q):
            forward_calls.append(tuple(q))
            return forward(chain, q)

        def recording_plan_for(simulator, robot, call):
            swept.append(plan_for(simulator, robot, call))
            return swept[-1]

        def recording_run_plan(device, plan, location):
            executed.append(plan)
            return run_plan(device, plan, location)

        monkeypatch.setattr(DHChain, "forward", counting_forward)
        monkeypatch.setattr(ExtendedSimulator, "_plan_for", recording_plan_for)
        monkeypatch.setattr(RobotArmDevice, "_run_plan", recording_run_plan)
        getattr(proxies["ur3e"], commands[-1])()

        assert rabit.alert_count == 0
        assert rabit.facts.sweep is not None and rabit.facts.sweep.verdict is None
        assert deck.ur3e.kinematics.q == first.ur3e.kinematics.q
        assert forward_calls == []
        # The device executes the very plan the simulator swept.
        assert len(swept) == 1 and len(executed) == 1
        assert executed[0] is swept[0]
