"""Unit tests for the kinematics substrate: DH chains, IK, trajectories,
and the per-vendor arm facade."""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import repro.kinematics.arm as arm_module
from repro.geometry.transforms import translation
from repro.kinematics.arm import ArmKinematics, UnreachableTargetError
from repro.kinematics.dh import DHChain, DHLink
from repro.kinematics.ik import solve_position_ik
from repro.kinematics.profiles import NED2, UR3E, UR5E, VIPERX_300, profile_by_name
from repro.kinematics.trajectory import plan_joint_trajectory

ALL_PROFILES = (UR3E, UR5E, VIPERX_300, NED2)


class TestDHChain:
    def test_single_link_planar(self):
        chain = DHChain([DHLink(a=1.0, alpha=0.0, d=0.0)])
        assert np.allclose(chain.end_effector_position([0.0]), [1, 0, 0], atol=1e-12)
        p = chain.end_effector_position([math.pi / 2])
        assert np.allclose(p, [0, 1, 0], atol=1e-12)

    def test_joint_positions_length(self):
        chain = UR3E.chain()
        points = chain.joint_positions(UR3E.home_q)
        assert len(points) == UR3E.dof + 1

    def test_base_transform_shifts_everything(self):
        chain = UR3E.chain().with_base(translation([1.0, 2.0, 0.0]))
        p0 = UR3E.chain().end_effector_position(UR3E.home_q)
        p1 = chain.end_effector_position(UR3E.home_q)
        assert np.allclose(p1 - p0, [1.0, 2.0, 0.0], atol=1e-12)

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError, match="joint angles"):
            UR3E.chain().forward([0.0, 0.0])

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            DHChain([])


class TestProfiles:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_home_pose_is_above_deck(self, profile):
        p = profile.chain().end_effector_position(profile.home_q)
        assert p[2] > 0.1, f"{profile.name} home pose must be well above the deck"

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_sleep_pose_is_above_deck(self, profile):
        p = profile.chain().end_effector_position(profile.sleep_q)
        assert p[2] > 0.05

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_postures_respect_joint_limits(self, profile):
        for posture in (profile.home_q, profile.sleep_q):
            for q, (lo, hi) in zip(posture, profile.joint_limits):
                assert lo - 1e-9 <= q <= hi + 1e-9

    def test_lookup_by_name(self):
        assert profile_by_name("ur3e") is UR3E
        assert profile_by_name("VIPERX") is VIPERX_300

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown arm profile"):
            profile_by_name("kuka")


class TestIK:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_reaches_mid_workspace_targets(self, profile):
        arm = ArmKinematics(profile)
        targets = [
            [profile.reach * 0.5, 0.1, 0.2],
            [0.1, profile.reach * 0.55, 0.15],
            [profile.reach * 0.4, -0.1, 0.1],
        ]
        for target in targets:
            plan = arm.plan_move(target)
            assert not plan.skipped
            arm.execute(plan)
            error = np.linalg.norm(arm.current_position() - np.asarray(target))
            assert error < 0.003, f"{profile.name} missed {target} by {error:.4f} m"

    def test_unreachable_does_not_converge(self):
        chain = UR3E.chain()
        result = solve_position_ik(chain, [0, 0, 5.0], q0=UR3E.home_q)
        assert not result.converged
        assert result.error > 1.0

    def test_respects_joint_limits(self):
        chain = UR3E.chain()
        limits = [(-0.5, 0.5)] * 6
        result = solve_position_ik(
            chain, [0.3, 0.1, 0.3], q0=[0.0] * 6, joint_limits=limits
        )
        for q, (lo, hi) in zip(result.q, limits):
            assert lo - 1e-9 <= q <= hi + 1e-9

    def test_rejects_bad_target_shape(self):
        with pytest.raises(ValueError, match="3D point"):
            solve_position_ik(UR3E.chain(), [0.1, 0.2], q0=UR3E.home_q)

    def test_rejects_unknown_jacobian_mode(self):
        with pytest.raises(ValueError, match="jacobian mode"):
            solve_position_ik(
                UR3E.chain(), [0.3, 0.1, 0.3], q0=UR3E.home_q, jacobian="symbolic"
            )

    @pytest.mark.parametrize("converged_target", [True, False])
    def test_result_q_holds_builtin_floats(self, converged_target):
        # Regression: np.float64 scalars leaking into IKResult.q made
        # report/JSONL serialization type-unstable.
        target = [0.3, 0.1, 0.3] if converged_target else [0.0, 0.0, 5.0]
        result = solve_position_ik(UR3E.chain(), target, q0=UR3E.home_q)
        assert result.converged is converged_target
        for value in result.q:
            assert type(value) is float

    def test_best_posture_is_feasible_when_limits_active(self):
        # Regression: limits must be applied *before* a posture is recorded
        # as best.  Seed the solve outside the limits, with the target at
        # the seed's own FK position: the old code saw zero error at the
        # raw seed and returned the infeasible posture as "converged"; the
        # fixed code clamps first, so every returned posture is feasible.
        chain = UR3E.chain()
        limits = [(-0.3, 0.3)] * 6
        seed = [1.5, -2.0, 1.8, -1.5, 2.0, 1.5]  # violates every limit
        target = chain.end_effector_position(seed)
        result = solve_position_ik(chain, target, q0=seed, joint_limits=limits)
        for q, (lo, hi) in zip(result.q, limits):
            assert lo - 1e-12 <= q <= hi + 1e-12
        if result.converged:
            # Feasible *and* on target is acceptable; infeasible is not.
            reached = chain.end_effector_position(result.q)
            assert np.linalg.norm(reached - target) < 1e-3


class TestTrajectory:
    def test_sample_endpoints(self):
        chain = UR3E.chain()
        traj = plan_joint_trajectory(chain, UR3E.home_q, UR3E.sleep_q)
        samples = traj.sample(10)
        assert len(samples) == 11
        assert np.allclose(samples[0], UR3E.home_q)
        assert np.allclose(samples[-1], UR3E.sleep_q)

    def test_duration_scales_with_excursion(self):
        chain = UR3E.chain()
        short = plan_joint_trajectory(chain, [0] * 6, [0.1] + [0] * 5, speed=1.0)
        long = plan_joint_trajectory(chain, [0] * 6, [1.0] + [0] * 5, speed=1.0)
        assert long.duration > short.duration
        assert long.duration == pytest.approx(1.0)

    def test_zero_motion_has_settling_time(self):
        chain = UR3E.chain()
        stay = plan_joint_trajectory(chain, [0] * 6, [0] * 6)
        assert stay.duration > 0

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            plan_joint_trajectory(UR3E.chain(), [0] * 6, [1] * 6, speed=0.0)


class TestArmFacade:
    def test_viperx_silently_skips_unreachable(self):
        arm = ArmKinematics(VIPERX_300)
        before = arm.current_position().copy()
        plan = arm.plan_move([0, 0, 5.0])
        assert plan.skipped and not plan.target_reached
        arm.execute(plan)
        assert np.allclose(arm.current_position(), before)

    def test_ned2_raises_on_unreachable(self):
        arm = ArmKinematics(NED2)
        with pytest.raises(UnreachableTargetError, match="cannot compute a trajectory"):
            arm.plan_move([0, 0, 5.0])

    def test_ur3e_raises_on_unreachable(self):
        arm = ArmKinematics(UR3E)
        with pytest.raises(UnreachableTargetError):
            arm.plan_move([2.0, 0, 0.2])

    def test_footprint_contains_arm(self):
        arm = ArmKinematics(UR3E)
        box = arm.footprint_cuboid()
        for point in arm.arm_polyline():
            assert box.contains(point)

    def test_plan_home_and_sleep(self):
        arm = ArmKinematics(VIPERX_300)
        arm.execute(arm.plan_move([0.4, 0.1, 0.2]))
        arm.execute(arm.plan_sleep())
        assert np.allclose(arm.q, VIPERX_300.sleep_q)
        arm.execute(arm.plan_home())
        assert np.allclose(arm.q, VIPERX_300.home_q)

    def test_set_posture_validates_arity(self):
        arm = ArmKinematics(UR3E)
        with pytest.raises(ValueError):
            arm.set_posture([0.0, 0.0])


class TestPostureCaches:
    """Kinematics once per posture: the cached end-effector position stays
    tied to the arm's current posture, and every arm of one mount shares
    the plans of its moves."""

    TARGET = (0.3, -0.05, 0.28)

    def test_seed_array_is_copied(self):
        seed = np.array(UR3E.sleep_q, dtype=np.float64)
        arm = ArmKinematics(UR3E, ik_seed=seed)
        seed += 0.3  # the caller reuses its array
        assert np.array_equal(arm.q, UR3E.sleep_q)
        assert np.array_equal(
            arm.current_position(), UR3E.chain().end_effector_position(UR3E.sleep_q)
        )

    def test_current_position_is_a_copy(self):
        arm = ArmKinematics(UR3E)
        arm.current_position()[:] = 9.0
        assert np.array_equal(
            arm.current_position(), UR3E.chain().end_effector_position(UR3E.home_q)
        )

    def test_position_follows_set_posture_and_execute(self):
        arm = ArmKinematics(UR5E)
        chain = UR5E.chain()
        arm.current_position()
        arm.set_posture(UR5E.sleep_q)
        assert np.array_equal(
            arm.current_position(), chain.end_effector_position(UR5E.sleep_q)
        )
        home = chain.end_effector_position(UR5E.home_q)
        assert np.array_equal(arm.execute(arm.plan_home()), home)
        assert np.array_equal(arm.current_position(), home)

    def test_same_move_from_same_posture_reuses_the_plan(self, cold_plan_cache, ik_solves):
        arm = ArmKinematics(UR3E)
        plan = arm.plan_move(self.TARGET)
        assert arm.plan_move(np.array(self.TARGET)) is plan
        assert arm.plan_move(self.TARGET, speed=0.5) is not plan
        # The cache is shared, not one entry per arm: after another move
        # is planned, a second arm of the same mount (the identity base
        # given explicitly) replays the first plan without IK.
        arm.plan_move([0.38, -0.05, 0.26])
        ik_solves.clear()
        twin = ArmKinematics(UR3E, base=translation([0.0, 0.0, 0.0]))
        assert twin.plan_move(self.TARGET) is plan
        assert twin.chain is arm.chain
        assert ik_solves == []
        # An arm mounted elsewhere plans its own move.
        moved = ArmKinematics(UR3E, base=translation([0.02, 0.0, 0.0]))
        own = moved.plan_move(self.TARGET)
        assert own is not plan and own.trajectory.q_end != plan.trajectory.q_end
        assert len(ik_solves) >= 1

    def test_execute_and_set_posture_replan_from_the_new_posture(self):
        arm = ArmKinematics(UR3E)
        first = arm.plan_move(self.TARGET)
        arm.execute(first)
        after_execute = arm.plan_move(self.TARGET)
        assert after_execute is not first
        assert after_execute.trajectory.q_start == first.trajectory.q_end
        arm.set_posture(UR3E.sleep_q)
        after_teleport = arm.plan_move(self.TARGET)
        assert after_teleport is not after_execute
        assert np.array_equal(after_teleport.trajectory.q_start, UR3E.sleep_q)


class TestSharedPlanCache:
    """One bounded LRU of ``plan_move`` outcomes per mounted chain."""

    UNREACHABLE = (0.0, 0.0, 5.0)

    def test_lru_evicts_the_oldest_plan_at_the_bound(
        self, monkeypatch, cold_plan_cache, ik_solves
    ):
        monkeypatch.setattr(arm_module, "PLAN_CACHE_SIZE", 2)
        arm = ArmKinematics(UR3E)
        first = arm.plan_move([0.3, -0.05, 0.28])
        second = arm.plan_move([0.38, -0.05, 0.26])
        assert arm.plan_move([0.3, -0.05, 0.28]) is first  # now the newest
        arm.plan_move([0.25, 0.1, 0.2])  # a third move evicts the oldest
        ik_solves.clear()
        assert arm.plan_move([0.3, -0.05, 0.28]) is first
        assert ik_solves == []
        again = arm.plan_move([0.38, -0.05, 0.26])
        assert again is not second and again == second
        assert len(ik_solves) >= 1
        assert len(arm_module._MOUNTS[(UR3E, np.eye(4).tobytes())].plans) == 2

    def test_raise_arm_replays_a_fresh_exception(self, cold_plan_cache, ik_solves):
        with pytest.raises(UnreachableTargetError) as first:
            ArmKinematics(NED2).plan_move(self.UNREACHABLE)
        ik_solves.clear()
        with pytest.raises(UnreachableTargetError) as second:
            ArmKinematics(NED2).plan_move(self.UNREACHABLE)
        assert ik_solves == []
        assert second.value is not first.value
        assert str(second.value) == str(first.value)
        assert second.value.arm == "ned2"
        assert second.value.target == first.value.target
        assert second.value.residual == first.value.residual

    def test_silent_skip_arm_replays_the_skip(self, cold_plan_cache, ik_solves):
        skip = ArmKinematics(VIPERX_300).plan_move(self.UNREACHABLE)
        assert skip.skipped
        ik_solves.clear()
        twin = ArmKinematics(VIPERX_300)
        assert twin.plan_move(self.UNREACHABLE) is skip
        assert ik_solves == []
        twin.execute(skip)
        assert twin.q == VIPERX_300.home_q

    def test_threads_share_one_plan_per_move(self, monkeypatch, cold_plan_cache):
        # Eight threads plan the same six moves in different orders, with
        # a tiny switch interval so they interleave inside plan_move: each
        # move is solved once, and every thread gets that one plan.
        targets = [(0.3, -0.05, 0.28), (0.38, -0.05, 0.26), (0.25, 0.1, 0.2),
                   (0.2, -0.2, 0.3), (0.3, 0.15, 0.15), (0.35, 0.0, 0.2)]
        solves = []
        solve = arm_module.ArmKinematics._plan_move

        def counted(self, *args):
            solves.append(1)
            return solve(self, *args)

        monkeypatch.setattr(arm_module.ArmKinematics, "_plan_move", counted)
        got = [[None] * len(targets) for _ in range(8)]
        errors = []

        def plan(n):
            try:
                for i in range(len(targets)):
                    index = (n + i) % len(targets)
                    got[n][index] = ArmKinematics(UR3E).plan_move(targets[index])
            except Exception as exc:  # reported below, with its type
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=plan, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(solves) == len(targets)
        for index, target in enumerate(targets):
            assert all(plans[index] is got[0][index] for plans in got)
            assert got[0][index].target == target

    def test_cached_plans_are_frozen(self):
        plan = ArmKinematics(UR3E).plan_move(TestPostureCaches.TARGET)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.skipped = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.trajectory.q_end = plan.trajectory.q_start
        assert isinstance(plan.trajectory.q_end, tuple)


class TestPrismaticJointsAndN9:
    """The SCARA-style N9 (the Berlinguette precursor-station arm) adds a
    prismatic z-lift to the kinematics substrate."""

    def test_prismatic_variable_extends_d(self):
        from repro.kinematics.dh import DHChain, DHLink

        lift = DHChain([DHLink(a=0.0, alpha=0.0, d=0.1, prismatic=True)])
        p0 = lift.end_effector_position([0.0])
        p1 = lift.end_effector_position([0.15])
        assert p1[2] - p0[2] == pytest.approx(0.15)

    def test_n9_lift_lowers_the_tool(self):
        from repro.kinematics.profiles import N9

        chain = N9.chain()
        retracted = chain.end_effector_position([0, 0, 0.0, 0])
        extended = chain.end_effector_position([0, 0, 0.2, 0])
        assert extended[2] == pytest.approx(retracted[2] - 0.2)
        # Planar position unaffected by the lift.
        assert np.allclose(extended[:2], retracted[:2])

    def test_n9_ik_reaches_scara_workspace(self):
        from repro.kinematics.profiles import N9

        arm = ArmKinematics(N9)
        for target in ([0.25, 0.1, 0.15], [0.2, -0.15, 0.1], [0.3, 0.0, 0.2]):
            plan = arm.plan_move(target)
            assert not plan.skipped
            arm.execute(plan)
            assert np.linalg.norm(arm.current_position() - np.asarray(target)) < 0.005

    def test_n9_cannot_leave_its_vertical_band(self):
        # A SCARA's vertical workspace is exactly its lift range; a
        # target below it must raise (N9 halts like Ned2).
        from repro.kinematics.profiles import N9

        arm = ArmKinematics(N9)
        with pytest.raises(UnreachableTargetError):
            arm.plan_move([0.25, 0.0, -0.2])

    def test_n9_registered_in_profile_lookup(self):
        from repro.kinematics.profiles import N9, profile_by_name

        assert profile_by_name("n9") is N9
        assert N9.dof == 4
