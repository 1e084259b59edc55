"""The :class:`ArmKinematics` facade used by the device layer.

It binds an :class:`~repro.kinematics.profiles.ArmProfile` to a mounting
pose, tracks the current joint posture, and plans Cartesian moves.  Vendor
failure modes are reproduced here:

- ViperX (``SILENT_SKIP``): an unreachable target yields a plan marked
  ``skipped`` — the arm stays where it is and *no error is raised*, exactly
  the behaviour §IV calls "potentially unsafe".
- Ned2 / UR arms (``RAISE``): an unreachable target raises
  :class:`UnreachableTargetError` immediately.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.geometry.shapes import Cuboid, bounding_cuboid
from repro.geometry.transforms import Transform
from repro.geometry.vec import Vec3, as_vec3
from repro.kinematics.dh import DHChain
from repro.kinematics.ik import solve_position_ik
from repro.kinematics.profiles import ArmProfile, UnreachableBehavior
from repro.kinematics.trajectory import JointTrajectory, plan_joint_trajectory


class UnreachableTargetError(Exception):
    """Raised by arms whose controller halts on an unplannable trajectory."""

    def __init__(self, arm: str, target: Sequence[float], residual: float) -> None:
        t = as_vec3(target)
        super().__init__(
            f"{arm}: cannot compute a trajectory to "
            f"({t[0]:.3f}, {t[1]:.3f}, {t[2]:.3f}) (residual {residual * 100:.1f} cm)"
        )
        self.arm = arm
        self.target = tuple(float(x) for x in t)
        self.residual = residual


@dataclass(frozen=True)
class TrajectoryPlan:
    """Result of planning a Cartesian move.

    ``skipped`` is True only for silent-skip arms given an unreachable
    target: the trajectory is then a zero-length stay-in-place motion and
    ``target_reached`` is False.  Callers that ignore ``skipped`` reproduce
    the unsafe continue-without-moving behaviour the paper observed.

    ``end_position`` is the end-effector position at the trajectory's
    ``q_end``, computed once when the plan is built; the simulator's
    sweep, the device's ground truth and :meth:`ArmKinematics.execute`
    read it instead of running forward kinematics again.
    """

    trajectory: JointTrajectory
    target: Tuple[float, float, float]
    skipped: bool
    residual: float
    end_position: Tuple[float, float, float]

    @property
    def target_reached(self) -> bool:
        """Whether executing the plan actually arrives at the target."""
        return not self.skipped


#: What :meth:`ArmKinematics.plan_move` caches for one move: the plan
#: (silent-skip plans included), or for a raising arm the IK residual of
#: the unreachable target.
PlanOutcome = Union[TrajectoryPlan, float]

#: Plans kept per mounted chain, least recently used evicted first.  A
#: cached UR3e plan retains about 1.2 KB, so a full cache is about 1.26 MB.
PLAN_CACHE_SIZE = 1024


class _Mount:
    """One mounted chain: an arm profile at one base transform.

    Holds the chain every :class:`ArmKinematics` of that mount shares and
    the bounded LRU of its :meth:`~ArmKinematics.plan_move` outcomes,
    keyed on the exact bytes of (start posture, target, speed).  An
    outcome depends on nothing else, so any arm of the mount may replay
    it; the plans are frozen and reference only the chain.
    """

    __slots__ = ("chain", "plans")

    def __init__(self, chain: DHChain) -> None:
        self.chain = chain
        self.plans: "OrderedDict[bytes, PlanOutcome]" = OrderedDict()


#: Every mount in the process, keyed on (profile, base matrix bytes).
_MOUNTS: Dict[Tuple[ArmProfile, bytes], _Mount] = {}
#: Guards :data:`_MOUNTS` and every mount's plans: any thread may plan.
_LOCK = threading.Lock()


def _mount(profile: ArmProfile, base: Transform) -> _Mount:
    key = (profile, base.matrix.tobytes())
    with _LOCK:
        mount = _MOUNTS.get(key)
        if mount is None:
            mount = _MOUNTS[key] = _Mount(profile.chain().with_base(base))
    return mount


class ArmKinematics:
    """Kinematic state and planning for one mounted six-axis arm.

    Kinematics is computed once per posture.  The end-effector position
    is cached with the posture (:meth:`set_posture` drops it and
    :meth:`execute` takes the plan's ``end_position``), and
    :meth:`plan_move` plans each move once per mount: every
    arm with an equal profile and base transform (every deck, session
    and simulator in the process) shares one bounded cache of plans.
    The Extended Simulator plans each move from the posture it polls and
    the device then plans the same move from the same posture; a fresh
    deck replays the moves an earlier deck planned.
    """

    #: Cartesian tolerance for declaring a target reachable (2 mm).
    REACH_TOLERANCE = 0.002

    def __init__(
        self,
        profile: ArmProfile,
        base: Optional[Transform] = None,
        ik_seed: Optional[Sequence[float]] = None,
    ) -> None:
        self.profile = profile
        self._mount = _mount(profile, base or Transform())
        self._chain: DHChain = self._mount.chain
        # A copy, as in set_posture: a caller mutating its seed array later
        # must not move the arm behind the posture-keyed caches.
        self._q: np.ndarray = np.array(
            ik_seed if ik_seed is not None else profile.home_q, dtype=np.float64
        )
        if self._q.shape != (profile.dof,):
            raise ValueError("ik_seed must match the arm's degrees of freedom")
        self._limits_lo, self._limits_hi = profile.limit_arrays()
        self._position: Optional[Vec3] = None  # end effector at _q, once computed

    # -- state ---------------------------------------------------------------

    @property
    def chain(self) -> DHChain:
        """The mounted kinematic chain."""
        return self._chain

    @property
    def q(self) -> Tuple[float, ...]:
        """Current joint posture."""
        return tuple(self._q)

    def set_posture(self, q: Sequence[float]) -> None:
        """Teleport the joints to *q* (used by tests and scenario setup)."""
        arr = np.asarray(q, dtype=np.float64)
        if arr.shape != (self.profile.dof,):
            raise ValueError("posture must match the arm's degrees of freedom")
        self._q = arr.copy()
        self._position = None

    def current_position(self) -> Vec3:
        """Current end-effector position in world coordinates (a copy)."""
        if self._position is None:
            self._position = self._chain.end_effector_position(self._q)
        return self._position.copy()

    # -- planning --------------------------------------------------------------

    def _ik_seeds(self) -> Iterator[np.ndarray]:
        """Deterministic IK restart seeds: current posture first, then
        canonical postures that cover distinct elbow/waist branches.

        Damped least squares is a local method; restarting from a few
        well-spread postures makes every point inside the physical workspace
        solvable, so the SILENT_SKIP/RAISE paths only trigger for genuinely
        unreachable targets (as on the real controllers).  The seeds are
        built lazily: the cascade stops at the first converged seed,
        usually the current posture.
        """
        yield self._q.copy()
        yield np.asarray(self.profile.home_q, dtype=np.float64)
        half_pi = float(np.pi / 2)
        for waist in (0.0, half_pi, -half_pi, float(np.pi) - 0.2):
            for shoulder, elbow in ((-0.8, 1.2), (-1.2, 0.6), (-0.4, 1.6)):
                q = np.zeros(self.profile.dof)
                q[0], q[1], q[2] = waist, shoulder, elbow
                if self.profile.dof >= 4:
                    q[3] = -half_pi
                yield self._clamp(q)

    def _clamp(self, q: np.ndarray) -> np.ndarray:
        """Clamp a posture to the profile's joint limits."""
        return np.clip(q, self._limits_lo, self._limits_hi)

    def plan_move(self, target: Sequence[float], speed: float = 1.0) -> TrajectoryPlan:
        """Plan a move of the end effector to Cartesian *target*.

        Applies the profile's unreachable-target behaviour; see the module
        docstring.  A reachable target yields a joint-space trajectory from
        the current posture to the IK solution.  A move any arm of this
        mount planned before, from the same posture, replays its outcome:
        the same plan, or a fresh :class:`UnreachableTargetError` with the
        same message.
        """
        tgt = as_vec3(target)
        key = self._q.tobytes() + tgt.tobytes() + np.float64(speed).tobytes()
        plans = self._mount.plans
        with _LOCK:
            outcome = plans.get(key)
            if outcome is None:
                outcome = plans[key] = self._plan_move(tgt, speed)
                if len(plans) > PLAN_CACHE_SIZE:
                    plans.popitem(last=False)
            else:
                plans.move_to_end(key)
        if isinstance(outcome, TrajectoryPlan):
            return outcome
        raise UnreachableTargetError(self.profile.name, tgt, outcome)

    def _plan_move(self, tgt: Vec3, speed: float) -> PlanOutcome:
        """Solve one move; the residual when a raising arm cannot reach it."""
        result = None
        for seed in self._ik_seeds():
            candidate = solve_position_ik(
                self._chain,
                tgt,
                q0=seed,
                joint_limits=self.profile.joint_limits,
                tolerance=self.REACH_TOLERANCE,
            )
            if result is None or candidate.error < result.error:
                result = candidate
            if candidate.converged:
                break
        assert result is not None
        if not result.converged:
            if self.profile.unreachable_behavior is UnreachableBehavior.SILENT_SKIP:
                stay = plan_joint_trajectory(self._chain, self._q, self._q, speed=speed)
                return TrajectoryPlan(
                    trajectory=stay,
                    target=tuple(float(x) for x in tgt),
                    skipped=True,
                    residual=result.error,
                    end_position=self._end_position(stay),
                )
            return result.error

        trajectory = plan_joint_trajectory(self._chain, self._q, result.q, speed=speed)
        return TrajectoryPlan(
            trajectory=trajectory,
            target=tuple(float(x) for x in tgt),
            skipped=False,
            residual=result.error,
            end_position=self._end_position(trajectory),
        )

    def _end_position(self, trajectory: JointTrajectory) -> Tuple[float, float, float]:
        """End-effector position at *trajectory*'s end, as builtin floats."""
        return tuple(self._chain.end_effector_position(trajectory.q_end).tolist())

    def plan_posture(self, q_end: Sequence[float], speed: float = 1.0) -> TrajectoryPlan:
        """Plan a move to an explicit joint posture (home/sleep poses)."""
        trajectory = plan_joint_trajectory(self._chain, self._q, q_end, speed=speed)
        end_position = self._end_position(trajectory)
        return TrajectoryPlan(
            trajectory=trajectory,
            target=end_position,
            skipped=False,
            residual=0.0,
            end_position=end_position,
        )

    def plan_home(self) -> TrajectoryPlan:
        """Plan a move to the vendor home posture."""
        return self.plan_posture(self.profile.home_q)

    def plan_sleep(self) -> TrajectoryPlan:
        """Plan a move to the vendor sleep posture."""
        return self.plan_posture(self.profile.sleep_q)

    def execute(self, plan: TrajectoryPlan) -> Vec3:
        """Commit the plan: advance the joint state to the trajectory's end.

        Returns the resulting end-effector position, the plan's
        ``end_position``.  For a skipped plan the posture is unchanged —
        the silent-skip semantics.
        """
        self._q = np.asarray(plan.trajectory.q_end, dtype=np.float64)
        self._position = np.array(plan.end_position, dtype=np.float64)
        return self._position.copy()

    # -- geometry ----------------------------------------------------------------

    def arm_polyline(self, q: Optional[Sequence[float]] = None) -> List[Vec3]:
        """Joint-origin polyline of the arm at posture *q* (default: current)."""
        return self._chain.joint_positions(self._q if q is None else q)

    def footprint_cuboid(self, margin: Optional[float] = None, name: Optional[str] = None) -> Cuboid:
        """Cuboid bounding the arm at its current posture.

        Time multiplexing models a stationary arm "as 3D cuboid spaces
        (identically to other devices)" — this is that cuboid, inflated by
        the link radius (or an explicit *margin*).
        """
        pad = self.profile.link_radius if margin is None else margin
        box = bounding_cuboid(self.arm_polyline(), name=name or self.profile.name)
        return box.inflated(pad)
