"""Joint-space trajectories and their sampled postures.

A :class:`JointTrajectory` is a planned motion between two postures, and
:meth:`JointTrajectory.sample` polls it: the sequence of joint vectors
the arm passes through.  The robot device samples them to freeze its
stall posture on contact; both it and the Extended Simulator sweep the
straight tool line for collisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

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

        Element ``[i]`` is exactly ``q0 + (q1 - q0) * (i / resolution)``;
        :meth:`sample` returns its rows.
        """
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        q0 = np.asarray(self.q_start, dtype=np.float64)
        q1 = np.asarray(self.q_end, dtype=np.float64)
        steps = np.arange(resolution + 1, dtype=np.float64) / resolution
        return q0[None, :] + (q1 - q0)[None, :] * steps[:, None]

    def sample(self, resolution: int = 40) -> List[np.ndarray]:
        """Joint vectors at *resolution* + 1 evenly spaced instants.

        Each returned vector is one observation of the arm mid-motion.
        """
        return list(self.sample_array(resolution))


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
