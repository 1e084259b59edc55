"""Vectorized point containment — the Extended Simulator's sweep kernel.

A deck sweep probes every polled tool point, gripper tip and held-vial tip
of a move against every configured device cuboid: P points × N cuboids, a
pure-Python double loop of :meth:`Cuboid.contains` calls on the hot path of
*every* robot command.

:class:`BatchCollisionEngine` packs all deck cuboids into ``(N, 3)``
``lo``/``hi`` arrays once and evaluates all P points against all N cuboids
in a single broadcasted comparison, producing the ``(P, N)`` containment
matrix.  The comparison is the scalar test's, with the same closed-boundary
convention, so results agree *exactly* with a ``for box in cuboids: if
box.contains(p)`` loop — which is what lets the differential suite assert
equality rather than tolerances.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.geometry.shapes import Cuboid
from repro.obs import OBS

__all__ = ["BatchCollisionEngine"]

_OBS_QUERIES = OBS.registry.counter(
    "geometry_batch_queries_total",
    "Batch-engine queries, by query kind.",
    labels=("kind",),
)
_OBS_PAIR_CHECKS = OBS.registry.counter(
    "geometry_pair_checks_total",
    "Point x cuboid pairs evaluated by the batch engine.",
)


def _as_points(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Coerce a point sequence into a ``(P, 3)`` float64 array."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) point array, got shape {arr.shape}")
    return arr


class BatchCollisionEngine:
    """All deck cuboids packed for broadcasted containment queries.

    *cuboids* is the obstacle set, in a fixed order: query results
    reference cuboids by this index, and ties resolve to the lowest index,
    matching a scalar loop's iteration order.
    """

    def __init__(self, cuboids: Sequence[Cuboid] = ()) -> None:
        cuboids = list(cuboids)
        n = len(cuboids)
        self._names: List[str] = [c.name for c in cuboids]
        self._lo = np.array([c.lo for c in cuboids], dtype=np.float64).reshape(n, 3)
        self._hi = np.array([c.hi for c in cuboids], dtype=np.float64).reshape(n, 3)

    # -- introspection ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._names)

    @property
    def names(self) -> List[str]:
        """Cuboid names in packed order."""
        return list(self._names)

    # -- batch queries ------------------------------------------------------

    def contains_points(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """``(P, N)`` boolean matrix: point *p* inside cuboid *n*,
        boundaries included — :meth:`Cuboid.contains` for every pair."""
        p = _as_points(points)[:, None, :]  # (P, 1, 3)
        result = np.all(
            (p >= self._lo[None, :, :]) & (p <= self._hi[None, :, :]), axis=2
        )
        if OBS.enabled:
            _OBS_QUERIES.inc(1, kind="contains_points")
            _OBS_PAIR_CHECKS.inc(float(result.size))
        return result

    def first_containing(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Per point, the lowest index of a cuboid containing it (-1: none).

        Matches a scalar ``for box in cuboids: if box.contains(p)`` loop's
        first hit for every point at once.
        """
        hits = self.contains_points(points)  # (P, N)
        if hits.shape[1] == 0:
            return np.full(hits.shape[0], -1, dtype=np.int64)
        return np.where(hits.any(axis=1), hits.argmax(axis=1), -1)

    def first_containing_many(
        self, point_arrays: Sequence[Sequence[Sequence[float]]]
    ) -> list:
        """:meth:`first_containing` over many point sets in one pass.

        Concatenates the ``(P_i, 3)`` arrays, runs a single stacked
        containment matrix, and splits the result back per input array.
        Because containment is evaluated row-independently, each returned
        array is bit-identical to calling :meth:`first_containing` on its
        input alone — this is the cross-session sweep-batching entry
        point: the serve layer stacks probe arrays from many concurrent
        sessions that share deck geometry and pays the kernel's fixed
        costs once per batch instead of once per command.
        """
        arrays = [_as_points(a) for a in point_arrays]
        if not arrays:
            return []
        stacked = np.concatenate(arrays, axis=0)
        hit = self.first_containing(stacked)
        out = []
        offset = 0
        for a in arrays:
            out.append(hit[offset : offset + len(a)])
            offset += len(a)
        return out
