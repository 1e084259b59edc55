"""Joint-space trajectories and their sampled Cartesian sweeps.

The Extended Simulator works "by continuously polling the robot arm's
trajectory and comparing it with the 3D objects' coordinates" (§III).  A
:class:`JointTrajectory` is the planned motion; :meth:`JointTrajectory.sample`
is the polling — it produces the sequence of joint vectors the simulator
inspects, and :meth:`JointTrajectory.end_effector_path` /
:meth:`JointTrajectory.link_paths` turn those into the Cartesian polylines
the collision checker sweeps against device cuboids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.vec import Vec3
from repro.kinematics.dh import DHChain


@dataclass(frozen=True)
class JointTrajectory:
    """A straight-line joint-space motion between two postures.

    ``duration`` is the nominal execution time in (virtual) seconds, used by
    the latency experiments; geometry does not depend on it.
    """

    chain: DHChain
    q_start: Tuple[float, ...]
    q_end: Tuple[float, ...]
    duration: float = 2.0

    def __post_init__(self) -> None:
        if len(self.q_start) != self.chain.dof or len(self.q_end) != self.chain.dof:
            raise ValueError("joint vectors must match the chain's degrees of freedom")

    def sample_array(self, resolution: int = 40) -> np.ndarray:
        """Polled joint vectors as one packed ``(resolution + 1, dof)`` array.

        The packed form is what the batch collision fast path consumes:
        one array out of the sampler, one broadcasted sweep in the checker,
        no per-sample Python loop in between.  Element ``[i]`` is exactly
        ``q0 + (q1 - q0) * (i / resolution)`` — the same float64 arithmetic
        as the scalar :meth:`sample`, so the two stay bit-identical.
        """
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        q0 = np.asarray(self.q_start, dtype=np.float64)
        q1 = np.asarray(self.q_end, dtype=np.float64)
        steps = np.arange(resolution + 1, dtype=np.float64) / resolution
        return q0[None, :] + (q1 - q0)[None, :] * steps[:, None]

    def sample(self, resolution: int = 40) -> List[np.ndarray]:
        """Joint vectors at *resolution* + 1 evenly spaced instants.

        This plays the role of the Extended Simulator's trajectory polling:
        each returned vector is one observation of the arm mid-motion.
        """
        return list(self.sample_array(resolution))

    def end_effector_path_array(self, resolution: int = 40) -> np.ndarray:
        """Cartesian end-effector polyline as a packed ``(R + 1, 3)`` array.

        Runs the packed sample matrix through the batched FK kernel — no
        per-sample Python loop.  Element ``[i]`` is the same float64
        arithmetic as :meth:`end_effector_path`'s scalar FK call, so the
        two stay exactly equal (the scalar path is the differential
        reference).
        """
        return self.chain.end_effector_positions_batch(self.sample_array(resolution))

    def end_effector_path(self, resolution: int = 40) -> List[Vec3]:
        """Cartesian polyline traced by the end effector (scalar reference)."""
        return [self.chain.end_effector_position(q) for q in self.sample(resolution)]

    def link_paths_array(self, resolution: int = 40) -> np.ndarray:
        """Per-sample full-arm point sets as one ``(R + 1, dof + 1, 3)`` array.

        Row ``[i]`` is the joint-origin polyline (base through end
        effector) at polled instant *i* — exactly :meth:`link_paths`
        element ``[i]`` packed into an array, produced by the batched FK
        kernel in one pass.  This is the shape the Extended Simulator
        feeds straight into the batch collision engine.
        """
        return self.chain.joint_positions_batch(self.sample_array(resolution))

    def link_paths(self, resolution: int = 40) -> List[List[Vec3]]:
        """Per-sample full-arm point sets (scalar reference).

        Each element is the list of joint-origin positions (base through end
        effector) at one polled instant; the simulator checks the segments
        between consecutive joints against obstacle cuboids.
        """
        return [self.chain.joint_positions(q) for q in self.sample(resolution)]


def plan_joint_trajectory(
    chain: DHChain,
    q_start: Sequence[float],
    q_end: Sequence[float],
    speed: float = 1.0,
) -> JointTrajectory:
    """Plan a joint-space motion from *q_start* to *q_end*.

    *speed* is the peak joint velocity in rad/s; the duration is the time
    the slowest joint needs.  A zero-length motion still takes a small fixed
    settling time, as real controllers do.
    """
    if speed <= 0:
        raise ValueError("speed must be positive")
    q0 = np.asarray(q_start, dtype=np.float64)
    q1 = np.asarray(q_end, dtype=np.float64)
    excursion = float(np.max(np.abs(q1 - q0))) if q0.size else 0.0
    duration = max(excursion / speed, 0.05)
    return JointTrajectory(
        chain, tuple(q0.tolist()), tuple(q1.tolist()), duration=duration
    )
