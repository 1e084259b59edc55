"""Plans carry their end pose: forward kinematics runs once per plan.

A :class:`~repro.kinematics.arm.TrajectoryPlan` holds the end-effector
position of its ``q_end``, computed when the plan is built.  The
Extended Simulator's sweep, the device's ground truth and
``ArmKinematics.execute`` read it, so a guarded move that replays a
cached plan runs no forward kinematics at all.  These tests pin that the
carried pose is the FK of ``q_end`` bit for bit, for every plan the
shared per-mount cache holds, and count the FK calls of a replayed move.
"""

import numpy as np
import pytest

from repro.core.monitor import RabitOptions
from repro.kinematics import arm as arm_module
from repro.kinematics.arm import ArmKinematics, TrajectoryPlan, UnreachableTargetError
from repro.kinematics.dh import DHChain
from repro.kinematics.profiles import N9, NED2, UR3E, UR5E, VIPERX_300
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.serve.session import default_serve_options
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
