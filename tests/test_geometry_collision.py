"""Unit tests for repro.geometry.collision."""

import pytest

from repro.geometry.collision import segment_cuboid_entry_time
from repro.geometry.shapes import Cuboid

BOX = Cuboid((0, 0, 0), (1, 1, 1), name="box")


class TestPointAndOverlap:
    def test_point_in_cuboid(self):
        assert BOX.contains([0.5, 0.5, 0.5])
        assert not BOX.contains([1.5, 0.5, 0.5])


class TestSegmentEntry:
    def test_through_center(self):
        t = segment_cuboid_entry_time([-1, 0.5, 0.5], [2, 0.5, 0.5], BOX)
        assert t == pytest.approx(1 / 3)

    def test_miss_returns_none(self):
        assert segment_cuboid_entry_time([-1, 2, 2], [2, 2, 2], BOX) is None

    def test_starting_inside_enters_at_zero(self):
        assert segment_cuboid_entry_time([0.5, 0.5, 0.5], [2, 0.5, 0.5], BOX) == 0.0

    def test_segment_too_short_misses(self):
        assert segment_cuboid_entry_time([-1, 0.5, 0.5], [-0.1, 0.5, 0.5], BOX) is None

    def test_parallel_outside_slab_misses(self):
        assert segment_cuboid_entry_time([-1, 1.5, 0.5], [2, 1.5, 0.5], BOX) is None

    def test_diagonal_hit(self):
        t = segment_cuboid_entry_time([-0.5, -0.5, -0.5], [1.5, 1.5, 1.5], BOX)
        assert t == pytest.approx(0.25)


class TestSegmentIntersects:
    def test_margin_widens_box(self):
        # Passes 0.05 above the box: misses bare, hits it inflated by 0.1.
        a, b = [-1, 0.5, 1.05], [2, 0.5, 1.05]
        assert segment_cuboid_entry_time(a, b, BOX) is None
        assert segment_cuboid_entry_time(a, b, BOX.inflated(0.1)) is not None
