"""Differential suite: batched kinematics kernel vs the scalar reference.

The batched FK/Jacobian paths are hot-path twins of the scalar
textbook recurrences, exactly as the batch collision engine twins the
scalar slab test.  This suite is the gate that makes the speedup safe:

- batch FK and joint-position stacks agree with the scalar loop to
  <= 1e-12 (in practice they are bit-identical — same float64 ops);
- the analytic position Jacobian matches central differences to <= 1e-6
  on every profile arm, prismatic joints included;
- IK convergence verdicts are identical between the analytic and
  numeric Jacobian modes on every profile arm;
- the one-FK-per-iteration solver returns exactly the ``IKResult`` of
  the earlier two-FK iteration (kept below as a reference loop), and the
  spelled-out cross product equals ``np.cross`` bit for bit;
- every outcome the shared plan cache replays after the hein and testbed
  preset matrix equals a fresh, uncached solve bit for bit.
"""

import numpy as np
import pytest

from repro.geometry.transforms import Transform, rotation_z, translation
from repro.kinematics import arm as arm_module
from repro.kinematics.arm import ArmKinematics, TrajectoryPlan, UnreachableTargetError
from repro.kinematics.dh import DHChain, DHLink
from repro.kinematics.ik import (
    IKResult,
    _jacobian_from_frames,
    analytic_position_jacobian,
    numeric_position_jacobian,
    solve_position_ik,
)
from repro.kinematics.profiles import N9, NED2, UR3E, UR5E, VIPERX_300
from repro.kinematics.trajectory import plan_joint_trajectory
from repro.obs import OBS
from repro.serve.session import default_serve_options
from repro.workflow.presets import build_preset, preset_matrix, run_preset

ALL_PROFILES = (UR3E, UR5E, VIPERX_300, NED2, N9)

FK_ATOL = 1e-12
JAC_ATOL = 1e-6


def _postures(profile, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = profile.limit_arrays()
    return rng.uniform(lo, hi, size=(count, profile.dof))


def _targets(profile, count, seed):
    """A mix of clearly reachable and clearly unreachable targets."""
    rng = np.random.default_rng(seed)
    r = profile.reach
    tgts = rng.uniform(-0.5 * r, 0.5 * r, size=(count, 3))
    tgts[:, 2] = np.abs(tgts[:, 2]) + 0.05
    tgts[3 * count // 4:] *= 8.0  # far outside every arm's envelope
    return tgts


class TestBatchForwardKinematics:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_forward_batch_matches_scalar(self, profile):
        chain = profile.chain()
        Q = _postures(profile, 64, seed=11)
        poses = chain.forward_batch(Q)
        assert poses.shape == (64, 4, 4)
        for q, pose in zip(Q, poses):
            assert np.allclose(pose, chain.forward(q).matrix, atol=FK_ATOL, rtol=0.0)

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_joint_positions_batch_matches_scalar(self, profile):
        chain = profile.chain()
        Q = _postures(profile, 64, seed=13)
        stacks = chain.joint_positions_batch(Q)
        assert stacks.shape == (64, profile.dof + 1, 3)
        for q, stack in zip(Q, stacks):
            assert np.allclose(
                stack, np.array(chain.joint_positions(q)), atol=FK_ATOL, rtol=0.0
            )

    def test_batch_respects_base_transform(self):
        base = translation([0.4, -0.2, 0.1]) @ rotation_z(0.7)
        chain = UR3E.chain().with_base(base)
        Q = _postures(UR3E, 16, seed=17)
        poses = chain.forward_batch(Q)
        for q, pose in zip(Q, poses):
            assert np.allclose(pose, chain.forward(q).matrix, atol=FK_ATOL, rtol=0.0)

    def test_frames_batch_matches_scalar_frames(self):
        chain = N9.chain()  # exercises the prismatic branch
        Q = _postures(N9, 32, seed=19)
        frames = chain.frames_batch(Q)
        for q, stack in zip(Q, frames):
            assert np.allclose(stack, chain.frames(q), atol=FK_ATOL, rtol=0.0)

    def test_batch_rejects_bad_shapes(self):
        chain = UR3E.chain()
        with pytest.raises(ValueError, match="joint matrix"):
            chain.forward_batch(np.zeros((4, 5)))
        with pytest.raises(ValueError, match="joint matrix"):
            chain.joint_positions_batch(np.zeros(6))


class TestAnalyticJacobian:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_matches_central_differences(self, profile):
        chain = profile.chain()
        for q in _postures(profile, 24, seed=23):
            analytic = analytic_position_jacobian(chain, q)
            numeric = numeric_position_jacobian(chain, q)
            assert np.allclose(analytic, numeric, atol=JAC_ATOL, rtol=0.0), (
                f"{profile.name}: analytic/numeric Jacobian mismatch at {q}"
            )

    def test_matches_under_base_transform(self):
        chain = NED2.chain().with_base(translation([0.2, 0.6, 0.0]) @ rotation_z(-1.1))
        for q in _postures(NED2, 12, seed=29):
            assert np.allclose(
                analytic_position_jacobian(chain, q),
                numeric_position_jacobian(chain, q),
                atol=JAC_ATOL,
                rtol=0.0,
            )

    def test_prismatic_column_is_axis(self):
        # A lone prismatic link's Jacobian column is its (base-frame) z axis.
        lift = DHChain([DHLink(a=0.0, alpha=0.0, d=0.1, prismatic=True)])
        jac = analytic_position_jacobian(lift, np.array([0.07]))
        assert np.allclose(jac[:, 0], [0.0, 0.0, 1.0], atol=FK_ATOL)


class TestIKVerdictParity:
    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_analytic_and_numeric_modes_agree(self, profile):
        chain = profile.chain()
        for target in _targets(profile, 12, seed=31):
            analytic = solve_position_ik(
                chain, target, q0=profile.home_q,
                joint_limits=profile.joint_limits, jacobian="analytic",
            )
            numeric = solve_position_ik(
                chain, target, q0=profile.home_q,
                joint_limits=profile.joint_limits, jacobian="numeric",
            )
            assert analytic.converged == numeric.converged, (
                f"{profile.name}: verdict flipped for {target}"
            )
            if analytic.converged:
                # Both solutions place the tool within tolerance.
                for result in (analytic, numeric):
                    reached = chain.end_effector_position(result.q)
                    assert np.linalg.norm(reached - target) < 1e-4


def _np_cross_jacobian(frames, prismatic):
    """The geometric Jacobian in its ``np.cross`` form, for one frame
    stack or a batch of them."""
    z = frames[..., :-1, :3, 2]
    p = frames[..., :-1, :3, 3]
    p_e = frames[..., -1:, :3, 3]
    columns = np.where(prismatic[:, None], z, np.cross(z, p_e - p))
    return np.swapaxes(columns, -1, -2)


def _two_fk_reference_ik(chain, target, q0, joint_limits, tolerance=1e-4):
    """The damped-least-squares loop as it ran before the FK pass was
    shared: one FK for the error, a second (``frames`` + ``np.cross``)
    for the Jacobian at the same posture."""
    q = np.asarray(q0, dtype=np.float64).copy()
    tgt = np.asarray(target, dtype=np.float64)
    limits = np.asarray(joint_limits, dtype=np.float64)
    lo, hi = limits[..., 0], limits[..., 1]
    np.clip(q, lo, hi, out=q)
    lam_sq = 0.05 * 0.05
    best_q, best_err = q.copy(), float("inf")
    for iteration in range(1, 201):
        error_vec = tgt - chain.end_effector_position(q)
        err = float(np.linalg.norm(error_vec))
        if err < best_err:
            best_err, best_q = err, q.copy()
        if err < tolerance:
            return IKResult(tuple(float(x) for x in q), err, iteration, converged=True)
        jac = _np_cross_jacobian(chain.frames(q), chain.prismatic_mask)
        dq = jac.T @ np.linalg.solve(jac @ jac.T + lam_sq * np.eye(3), error_vec)
        step_norm = float(np.linalg.norm(dq))
        if step_norm > 0.5:
            dq *= 0.5 / step_norm
        q = q + dq
        np.clip(q, lo, hi, out=q)
    return IKResult(tuple(float(x) for x in best_q), best_err, 200, converged=False)


def _ik_grid(profile):
    """Seeded (target, seed) grid: reachable and unreachable targets,
    from home, sleep and random postures (one outside the limits)."""
    postures = _postures(profile, 2, seed=47)
    postures[1, 0] = profile.limit_arrays()[1][0] + 0.3  # the solver clamps it
    seeds = [np.asarray(profile.home_q), np.asarray(profile.sleep_q), *postures]
    return [(t, s) for t in _targets(profile, 8, seed=43) for s in seeds]


class TestSharedFKPass:
    """One FK pass per IK iteration changes no result, bit for bit."""

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_ik_results_equal_two_fk_reference(self, profile):
        chain = profile.chain()
        for target, seed in _ik_grid(profile):
            got = solve_position_ik(chain, target, seed, joint_limits=profile.joint_limits)
            want = _two_fk_reference_ik(chain, target, seed, profile.joint_limits)
            assert (got.q, got.error, got.iterations, got.converged) == (
                want.q, want.error, want.iterations, want.converged
            ), f"{profile.name}: {target} from {seed}"

    @pytest.mark.parametrize("profile", ALL_PROFILES, ids=lambda p: p.name)
    def test_explicit_cross_equals_np_cross(self, profile):
        chain = profile.chain().with_base(translation([0.1, -0.3, 0.05]) @ rotation_z(0.4))
        mask = chain.prismatic_mask
        postures = _postures(profile, 16, seed=53)
        for q in postures:
            assert np.array_equal(
                analytic_position_jacobian(chain, q),
                _np_cross_jacobian(chain.frames(q), mask),
            )
        frames = chain.frames_batch(postures)
        assert np.array_equal(
            _jacobian_from_frames(frames, mask), _np_cross_jacobian(frames, mask)
        )

    def test_one_analytic_jacobian_per_iteration(self):
        counter = OBS.registry.counter(
            "kinematics_ik_jacobians_total", labels=("mode",)
        )
        chain = UR3E.chain()
        was_enabled = OBS.enabled
        OBS.enable()
        try:
            for target in _targets(UR3E, 4, seed=59):
                before = counter.value(mode="analytic")
                result = solve_position_ik(
                    chain, target, UR3E.home_q, joint_limits=UR3E.joint_limits
                )
                # Every iteration but a converging last one takes a step.
                steps = result.iterations - (1 if result.converged else 0)
                assert counter.value(mode="analytic") - before == steps
        finally:
            if not was_enabled:
                OBS.disable()


class TestTrajectoryArrays:
    @pytest.mark.parametrize("profile", (UR3E, N9), ids=lambda p: p.name)
    def test_link_paths_array_matches_scalar(self, profile):
        traj = plan_joint_trajectory(profile.chain(), profile.home_q, profile.sleep_q)
        packed = traj.link_paths_array(25)
        scalar = traj.link_paths(25)
        assert packed.shape == (26, profile.dof + 1, 3)
        for row, frame in zip(packed, scalar):
            assert np.allclose(row, np.array(frame), atol=FK_ATOL, rtol=0.0)

    def test_end_effector_path_array_matches_scalar(self):
        traj = plan_joint_trajectory(UR5E.chain(), UR5E.home_q, UR5E.sleep_q)
        packed = traj.end_effector_path_array(30)
        scalar = traj.end_effector_path(30)
        assert packed.shape == (31, 3)
        for row, point in zip(packed, scalar):
            assert np.allclose(row, point, atol=FK_ATOL, rtol=0.0)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestSharedPlanCache:
    """The shared per-mount plan cache replays exactly what IK would solve.

    A cached outcome is keyed on the bytes of (start posture, target,
    speed), or for a home or sleep plan on a tag and (start posture, end
    posture, speed), and shared by every arm of the mount, so each one
    must be what a fresh arm at that posture computes with the cache
    bypassed.
    """

    def test_cached_outcomes_equal_fresh_solves(self, cold_plan_cache):
        for name, params in preset_matrix():
            if build_preset(name, params).deck in ("hein", "testbed"):
                run_preset(name, params, options=default_serve_options())
        for profile in (UR3E, NED2, VIPERX_300):  # the unreachable outcomes
            try:
                ArmKinematics(profile).plan_move((0.0, 0.0, 5.0))
            except UnreachableTargetError:
                pass

        seen = {"plan": 0, "skip": 0, "unreachable": 0, "posture": 0}
        tag = arm_module._POSTURE_KEY
        for (profile, base), mount in arm_module._MOUNTS.items():
            dof = profile.dof
            for key, cached in list(mount.plans.items()):
                posture = key.startswith(tag)
                if posture:
                    key = key[len(tag):]
                q = np.frombuffer(key[: 8 * dof])
                end = 8 * dof + (8 * dof if posture else 24)
                target = np.frombuffer(key[8 * dof : end])
                (speed,) = np.frombuffer(key[end:])
                arm = ArmKinematics(
                    profile, Transform(np.frombuffer(base).reshape(4, 4)), ik_seed=q
                )
                if posture:
                    seen["posture"] += 1
                    fresh = arm._plan_posture(target, float(speed))
                    assert cached.trajectory.q_end == tuple(target.tolist())
                else:
                    fresh = arm._plan_move(target, float(speed))
                if isinstance(cached, TrajectoryPlan):
                    if not posture:
                        seen["skip" if cached.skipped else "plan"] += 1
                    assert isinstance(fresh, TrajectoryPlan)
                    # Builtin floats, not numpy scalars: a shared plan is
                    # plain data that prints and serializes as such.
                    postures = cached.trajectory.q_start + cached.trajectory.q_end
                    assert all(type(q) is float for q in postures), profile.name
                    for field in ("q_start", "q_end", "duration"):
                        assert _bits(getattr(cached.trajectory, field)) == _bits(
                            getattr(fresh.trajectory, field)
                        ), (profile.name, field)
                    assert _bits(cached.target) == _bits(fresh.target)
                    assert cached.skipped is fresh.skipped
                    assert _bits(cached.residual) == _bits(fresh.residual)
                else:
                    seen["unreachable"] += 1
                    assert _bits(cached) == _bits(fresh)
                    with pytest.raises(UnreachableTargetError) as replayed:
                        arm.plan_move(target, float(speed))
                    solved = UnreachableTargetError(profile.name, target, fresh)
                    assert str(replayed.value) == str(solved)
        assert seen["plan"] > 40 and seen["skip"] >= 1 and seen["unreachable"] >= 2, seen
        assert seen["posture"] >= 2, seen
