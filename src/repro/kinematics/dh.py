"""Denavit-Hartenberg chains and forward kinematics.

A :class:`DHChain` is an ordered list of revolute or prismatic
:class:`DHLink` entries.  Forward kinematics is the textbook recurrence,
one 4x4 per link per call: :meth:`DHChain.forward` gives the end-effector
pose, :meth:`DHChain.frames` every link frame (the analytic Jacobian reads
joint axes and origins off it), and :meth:`DHChain.joint_positions` the
joint-origin polyline (base through end effector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.geometry.transforms import Transform
from repro.geometry.vec import Vec3


@dataclass(frozen=True)
class DHLink:
    """One link in standard DH convention — revolute or prismatic.

    Parameters follow the classic (Craig-style ordering of the) convention:

    - ``a``      link length (metres): distance along x from z_{i-1} to z_i.
    - ``alpha``  link twist (radians): angle about x from z_{i-1} to z_i.
    - ``d``      link offset (metres): distance along z_{i-1}.
    - ``theta_offset``  fixed joint-angle offset added to the commanded angle.
    - ``prismatic``  when True, the joint variable extends ``d`` instead of
      rotating ``theta`` (SCARA z-lifts, gantries — e.g. the N9 arm at the
      Berlinguette precursor station).
    """

    a: float
    alpha: float
    d: float
    theta_offset: float = 0.0
    prismatic: bool = False

    def transform(self, q: float) -> np.ndarray:
        """The 4x4 transform of this link for joint variable *q*
        (radians for revolute joints, metres for prismatic ones)."""
        if self.prismatic:
            th = self.theta_offset
            d = self.d + q
        else:
            th = q + self.theta_offset
            d = self.d
        ct, st = np.cos(th), np.sin(th)
        ca, sa = np.cos(self.alpha), np.sin(self.alpha)
        return np.array(
            [
                [ct, -st * ca, st * sa, self.a * ct],
                [st, ct * ca, -ct * sa, self.a * st],
                [0.0, sa, ca, d],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )


class DHChain:
    """A serial chain of revolute DH links mounted at a base transform."""

    def __init__(self, links: Sequence[DHLink], base: Transform | None = None) -> None:
        if not links:
            raise ValueError("a DH chain needs at least one link")
        self._links: Tuple[DHLink, ...] = tuple(links)
        self._base = base if base is not None else Transform()
        self._prismatic = np.array([l.prismatic for l in self._links], dtype=bool)

    @property
    def dof(self) -> int:
        """Number of revolute joints."""
        return len(self._links)

    @property
    def base(self) -> Transform:
        """Mounting transform of the chain's base in world coordinates."""
        return self._base

    @property
    def prismatic_mask(self) -> np.ndarray:
        """Read-only ``(dof,)`` boolean mask of prismatic joints."""
        return self._prismatic.copy()

    def with_base(self, base: Transform) -> "DHChain":
        """A copy of this chain mounted at a different *base* transform."""
        return DHChain(self._links, base=base)

    def _check_q(self, q: Sequence[float]) -> np.ndarray:
        arr = np.asarray(q, dtype=np.float64)
        if arr.shape != (self.dof,):
            raise ValueError(f"expected {self.dof} joint angles, got shape {arr.shape}")
        return arr

    def forward(self, q: Sequence[float]) -> Transform:
        """End-effector pose (world frame) for joint vector *q*."""
        arr = self._check_q(q)
        m = self._base.matrix.copy()
        for link, theta in zip(self._links, arr):
            m = m @ link.transform(float(theta))
        return Transform(m)

    def frames(self, q: Sequence[float]) -> np.ndarray:
        """All ``dof + 1`` frame matrices as a ``(dof + 1, 4, 4)`` stack.

        Element 0 is the base frame; element ``i`` is the world pose of
        link frame ``i`` (the last is the end effector).  The analytic
        Jacobian reads joint axes and origins off this stack.
        """
        arr = self._check_q(q)
        out = np.empty((self.dof + 1, 4, 4), dtype=np.float64)
        m = self._base.matrix.copy()
        out[0] = m
        for i, (link, theta) in enumerate(zip(self._links, arr)):
            m = m @ link.transform(float(theta))
            out[i + 1] = m
        return out

    def joint_positions(self, q: Sequence[float]) -> List[Vec3]:
        """World positions of the base and every joint frame origin.

        Returns ``dof + 1`` points: the base origin followed by the origin
        of each successive link frame (the last is the end-effector).  These
        points are the polyline the collision checker sweeps.
        """
        arr = self._check_q(q)
        m = self._base.matrix.copy()
        points: List[Vec3] = [m[:3, 3].copy()]
        for link, theta in zip(self._links, arr):
            m = m @ link.transform(float(theta))
            points.append(m[:3, 3].copy())
        return points

    def end_effector_position(self, q: Sequence[float]) -> Vec3:
        """World position of the end effector for joint vector *q*."""
        return self.forward(q).translation
