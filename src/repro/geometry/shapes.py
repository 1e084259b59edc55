"""Axis-aligned cuboids — RABIT's device shape model.

The paper's Extended Simulator "model[s] each device on the experiment deck
as a 3D cuboid object" (Fig. 3), and the multi-arm workaround models a
sleeping robot arm "as 3D cuboid spaces (identically to other devices)".
Participant P noted in the pilot study that cuboids are a simplification
(a centrifuge is closer to a hemisphere); we keep the paper's cuboid model
and, like the paper suggests, allow inflating cuboids to be conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.geometry.vec import Vec3, as_vec3


@dataclass(frozen=True)
class Cuboid:
    """An axis-aligned cuboid given by its minimum and maximum corners.

    ``name`` identifies the device the cuboid models; collision reports
    surface it to the user ("robot arm would collide with *dosing_device*").
    """

    min_corner: Tuple[float, float, float]
    max_corner: Tuple[float, float, float]
    name: str = "unnamed"

    def __post_init__(self) -> None:
        lo = as_vec3(self.min_corner)
        hi = as_vec3(self.max_corner)
        if not np.all(lo <= hi):
            raise ValueError(
                f"cuboid {self.name!r} has min corner {tuple(lo)} above max corner {tuple(hi)}"
            )
        object.__setattr__(self, "min_corner", tuple(float(x) for x in lo))
        object.__setattr__(self, "max_corner", tuple(float(x) for x in hi))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_center(
        cls, center: Sequence[float], size: Sequence[float], name: str = "unnamed"
    ) -> "Cuboid":
        """Build a cuboid from its *center* point and edge lengths *size*."""
        c = as_vec3(center)
        half = as_vec3(size) / 2.0
        return cls(tuple(c - half), tuple(c + half), name=name)

    # -- accessors -----------------------------------------------------------

    @property
    def lo(self) -> Vec3:
        """Minimum corner as a vector."""
        return as_vec3(self.min_corner)

    @property
    def hi(self) -> Vec3:
        """Maximum corner as a vector."""
        return as_vec3(self.max_corner)

    @property
    def center(self) -> Vec3:
        """Geometric center."""
        return (self.lo + self.hi) / 2.0

    @property
    def size(self) -> Vec3:
        """Edge lengths along each axis."""
        return self.hi - self.lo

    @property
    def volume(self) -> float:
        """Volume in cubic metres."""
        return float(np.prod(self.size))

    # -- operations ----------------------------------------------------------

    def inflated(self, margin: float) -> "Cuboid":
        """Return a copy grown by *margin* on every face.

        This is how RABIT conservatively accounts for the gripper radius and,
        after the Bug-D fix, for the dimensions of a held object ("a robot
        arm's dimensions may change if it is holding an object").
        """
        if margin < 0 and np.any(self.size + 2 * margin < 0):
            raise ValueError(f"margin {margin} would invert cuboid {self.name!r}")
        m = as_vec3([margin, margin, margin])
        return Cuboid(tuple(self.lo - m), tuple(self.hi + m), name=self.name)

    def translated(self, offset: Sequence[float]) -> "Cuboid":
        """Return a copy shifted by *offset*."""
        o = as_vec3(offset)
        return Cuboid(tuple(self.lo + o), tuple(self.hi + o), name=self.name)

    def renamed(self, name: str) -> "Cuboid":
        """Return a copy carrying a different *name*."""
        return Cuboid(self.min_corner, self.max_corner, name=name)

    def contains(self, point: Sequence[float], tol: float = 0.0) -> bool:
        """Whether *point* lies inside (or within *tol* of) this cuboid.

        Compares plain floats against the stored corners: the same IEEE
        double comparisons as the vector form ``all(p >= lo - tol) and
        all(p <= hi + tol)``, without building an array per operand.
        """
        x, y, z = as_vec3(point).tolist()
        lo, hi, t = self.min_corner, self.max_corner, float(tol)
        return (
            lo[0] - t <= x <= hi[0] + t
            and lo[1] - t <= y <= hi[1] + t
            and lo[2] - t <= z <= hi[2] + t
        )

    def closest_point(self, point: Sequence[float]) -> Vec3:
        """The point of this cuboid closest to *point*."""
        return np.clip(as_vec3(point), self.lo, self.hi)

    def distance_to_point(self, point: Sequence[float]) -> float:
        """Euclidean distance from *point* to this cuboid (0 if inside)."""
        p = as_vec3(point)
        return float(np.linalg.norm(p - self.closest_point(p)))

    def corners(self) -> np.ndarray:
        """The eight corner points as an ``(8, 3)`` array."""
        lo, hi = self.lo, self.hi
        return np.array(
            [
                [x, y, z]
                for x in (lo[0], hi[0])
                for y in (lo[1], hi[1])
                for z in (lo[2], hi[2])
            ]
        )


def bounding_cuboid(points: Iterable[Sequence[float]], name: str = "bounds") -> Cuboid:
    """The tightest axis-aligned cuboid containing all *points*."""
    pts = np.array([as_vec3(p) for p in points], dtype=np.float64)
    if pts.size == 0:
        raise ValueError("cannot bound an empty point set")
    return Cuboid(tuple(pts.min(axis=0)), tuple(pts.max(axis=0)), name=name)
