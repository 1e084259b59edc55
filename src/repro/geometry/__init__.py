"""Geometric primitives used throughout the RABIT reproduction.

This package is the lowest layer of the stack.  It provides:

- :mod:`repro.geometry.vec` -- small 3D vector helpers on top of numpy.
- :mod:`repro.geometry.transforms` -- homogeneous transforms and named
  coordinate frames (each robot arm keeps its own frame, as in the paper).
- :mod:`repro.geometry.shapes` -- axis-aligned cuboids, the shape the paper's
  Extended Simulator uses to model every automation device ("we model each
  device on the experiment deck as a 3D cuboid object").
- :mod:`repro.geometry.collision` -- the segment/box slab test the
  proximity-sensor rule uses.
- :mod:`repro.geometry.batch` -- :class:`BatchCollisionEngine`, the
  Extended Simulator's sweep kernel: all deck cuboids packed into
  ``(N, 3)`` arrays, every polled point probed in one broadcasted pass.
  It must agree exactly with a scalar :meth:`Cuboid.contains` loop.
- :mod:`repro.geometry.walls` -- software-defined walls used for space
  multiplexing of multiple robot arms.
"""

from repro.geometry.vec import Vec3, as_vec3, norm, distance, lerp
from repro.geometry.transforms import (
    Transform,
    FrameRegistry,
    rotation_x,
    rotation_y,
    rotation_z,
    translation,
    identity,
    estimate_rigid_transform,
)
from repro.geometry.shapes import Cuboid, bounding_cuboid
from repro.geometry.richshapes import (
    CompositeShape,
    Hemisphere,
    Shape,
    VerticalCylinder,
    shape_from_spec,
)
from repro.geometry.collision import segment_cuboid_entry_time
from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.walls import SoftwareWall, Workspace

__all__ = [
    "Vec3",
    "as_vec3",
    "norm",
    "distance",
    "lerp",
    "Transform",
    "FrameRegistry",
    "rotation_x",
    "rotation_y",
    "rotation_z",
    "translation",
    "identity",
    "estimate_rigid_transform",
    "Cuboid",
    "bounding_cuboid",
    "CompositeShape",
    "Hemisphere",
    "Shape",
    "VerticalCylinder",
    "shape_from_spec",
    "segment_cuboid_entry_time",
    "BatchCollisionEngine",
    "SoftwareWall",
    "Workspace",
]
