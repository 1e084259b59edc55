"""Segment/cuboid intersection: the slab test the sensor rule runs.

The Extended Simulator probes polled points with :meth:`Cuboid.contains`
(or its packed form, :class:`~repro.geometry.batch.BatchCollisionEngine`);
the §V-B proximity-sensor rule instead asks whether the straight move
from the arm's position to its target enters a sensor's zone —
:func:`segment_cuboid_entry_time`, the slab method for segment/AABB
intersection.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.geometry.shapes import Cuboid
from repro.geometry.vec import as_vec3


def segment_cuboid_entry_time(
    start: Sequence[float], end: Sequence[float], cuboid: Cuboid
) -> Optional[float]:
    """Parameter ``t in [0, 1]`` at which segment *start*→*end* enters *cuboid*.

    Returns ``None`` if the segment misses the cuboid.  Uses the slab method:
    intersect the parametric line with each axis-aligned slab and keep the
    overlap of the three parameter intervals.

    Boundary convention: cuboids are **closed**, matching
    :meth:`Cuboid.contains` — a segment that merely grazes a face, edge,
    or corner counts as entering.  The parallel branch therefore triggers
    only on an exactly zero displacement component (``d == 0.0``); a
    tiny-but-nonzero component goes through the division path, so a
    segment ending exactly on a face is a hit no matter how short it is.  (An earlier revision used an epsilon threshold here, which
    rejected sub-epsilon segments whose endpoint lay exactly on a face even
    though ``contains`` accepted that endpoint.)
    """
    p0 = as_vec3(start)
    p1 = as_vec3(end)
    d = p1 - p0

    t_enter = 0.0
    t_exit = 1.0
    for axis in range(3):
        lo, hi = cuboid.lo[axis], cuboid.hi[axis]
        if d[axis] == 0.0:
            # Segment parallel to this slab: must already be inside it
            # (faces included — the closed convention).
            if p0[axis] < lo or p0[axis] > hi:
                return None
            continue
        t0 = (lo - p0[axis]) / d[axis]
        t1 = (hi - p0[axis]) / d[axis]
        if t0 > t1:
            t0, t1 = t1, t0
        t_enter = max(t_enter, t0)
        t_exit = min(t_exit, t1)
        if t_enter > t_exit:
            return None
    return t_enter
