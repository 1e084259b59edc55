"""Property-based tests (hypothesis) on the core data structures and
geometric invariants RABIT's checks are built from."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.state import LabState, OBSERVABLE_VARS
from repro.geometry.collision import segment_cuboid_entry_time
from repro.geometry.shapes import Cuboid, bounding_cuboid
from repro.geometry.transforms import (
    estimate_rigid_transform,
    rotation_x,
    rotation_y,
    rotation_z,
    translation,
)
from repro.geometry.walls import SoftwareWall

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
point = st.tuples(finite, finite, finite)
small = st.floats(min_value=0.01, max_value=5.0)
angle = st.floats(min_value=-math.pi, max_value=math.pi)


def boxes():
    return st.builds(
        lambda c, s: Cuboid.from_center(list(c), [max(x, 1e-3) for x in s]),
        point,
        st.tuples(small, small, small),
    )


class TestCuboidProperties:
    @given(boxes())
    def test_center_is_contained(self, box):
        assert box.contains(box.center)

    @given(boxes(), point)
    def test_closest_point_is_contained(self, box, p):
        assert box.contains(box.closest_point(p), tol=1e-9)

    @given(boxes(), st.floats(min_value=0.0, max_value=1.0))
    def test_inflation_is_monotone(self, box, margin):
        bigger = box.inflated(margin)
        for corner in box.corners():
            assert bigger.contains(corner, tol=1e-9)

    @given(boxes(), point)
    def test_distance_zero_iff_contained(self, box, p):
        inside = box.contains(p)
        distance = box.distance_to_point(p)
        if inside:
            assert distance == 0.0
        else:
            assert distance > 0.0

    @given(st.lists(point, min_size=1, max_size=20))
    def test_bounding_cuboid_contains_all_points(self, points):
        box = bounding_cuboid(points)
        for p in points:
            assert box.contains(p, tol=1e-9)


class TestSegmentProperties:
    @given(boxes(), point, point)
    def test_entry_time_point_is_on_boundary_or_inside(self, box, a, b):
        t = segment_cuboid_entry_time(a, b, box)
        if t is not None:
            assert 0.0 <= t <= 1.0
            contact = np.asarray(a) + (np.asarray(b) - np.asarray(a)) * t
            assert box.contains(contact, tol=1e-6)

    @given(boxes(), point, point)
    def test_endpoint_inside_implies_hit(self, box, a, b):
        if box.contains(a) or box.contains(b):
            assert segment_cuboid_entry_time(a, b, box) is not None


class TestTransformProperties:
    @settings(max_examples=50)
    @given(point, angle, angle, angle)
    def test_rigid_transforms_preserve_distances(self, offset, ax, ay, az):
        t = translation(list(offset)) @ rotation_x(ax) @ rotation_y(ay) @ rotation_z(az)
        p, q = np.array([0.3, -0.2, 0.5]), np.array([-1.0, 0.4, 0.1])
        d_before = np.linalg.norm(p - q)
        d_after = np.linalg.norm(t.apply(p) - t.apply(q))
        assert d_after == pytest.approx(d_before, abs=1e-9)

    @settings(max_examples=50)
    @given(point, angle, angle)
    def test_inverse_is_exact(self, offset, ax, az):
        t = translation(list(offset)) @ rotation_x(ax) @ rotation_z(az)
        p = np.array([0.7, -0.8, 0.9])
        assert np.allclose(t.inverse().apply(t.apply(p)), p, atol=1e-9)

    @settings(max_examples=30)
    @given(point, angle, angle)
    def test_kabsch_recovers_rigid_transforms(self, offset, ax, az):
        truth = translation(list(offset)) @ rotation_x(ax) @ rotation_z(az)
        src = np.array(
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0.5, -0.5, 0.5]]
        )
        dst = [truth.apply(p) for p in src]
        fitted = estimate_rigid_transform(src, dst)
        assert fitted.is_close(truth, atol=1e-8)


class TestWallProperties:
    @settings(max_examples=50)
    @given(point, st.floats(min_value=-5, max_value=5), point)
    def test_flip_partitions_space(self, normal, offset, p):
        if all(abs(n) < 1e-6 for n in normal):
            return
        wall = SoftwareWall(normal, offset)
        flipped = wall.flipped()
        d = wall.signed_distance(p)
        if abs(d) > 1e-9:
            assert wall.allows(p) != flipped.allows(p)


class TestLabStateProperties:
    keys = st.sampled_from(["a", "b", "c"])
    values = st.one_of(st.none(), st.booleans(), st.text(max_size=5), finite)

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(sorted(OBSERVABLE_VARS)), keys, values), max_size=10))
    def test_merge_observed_is_idempotent(self, assignments):
        observed = LabState()
        for var, key, value in assignments:
            observed.set(var, key, value)
        base = LabState()
        once = base.merge_observed(observed)
        twice = once.merge_observed(observed)
        assert once.diff_observable(twice) == []

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.sampled_from(sorted(OBSERVABLE_VARS)), keys, values), max_size=10))
    def test_diff_with_self_is_empty(self, assignments):
        state = LabState()
        for var, key, value in assignments:
            state.set(var, key, value)
        assert state.diff_observable(state.copy()) == []

    @settings(max_examples=50)
    @given(st.lists(st.tuples(keys, st.one_of(st.none(), st.text(max_size=3))), max_size=8))
    def test_vial_at_inverts_container_at(self, placements):
        state = LabState()
        for vial, location in placements:
            state.set("container_at", vial, location)
        for vial, location in state.entries("container_at").items():
            if location is not None:
                assert state.vial_at(location) in state.keys_where("container_at", location)


class TestRuleCheckPurity:
    """Rule checks are pure: validating an action never mutates the
    state snapshot — otherwise a vetoed command could corrupt RABIT's
    belief about the lab."""

    def test_checking_all_rules_leaves_state_untouched(self):
        from repro.core.actions import ActionCall, ActionLabel
        from repro.core.rulebase import CheckContext, build_default_rulebase
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck

        deck = build_hein_deck()
        rabit, _, _ = make_rabit(deck)
        rulebase = build_default_rulebase(["C1", "C2", "C3", "C4"])
        snapshot = {
            var: rabit.state.entries(var)
            for var in ("door_status", "robot_holding", "container_at", "device_active")
        }
        calls = [
            ActionCall(ActionLabel.MOVE_ROBOT_INSIDE, "ur3e", robot="ur3e",
                       location="dosing_interior", target=(0.0, 0.38, 0.12)),
            ActionCall(ActionLabel.START_DOSING, "dosing_device", quantity=15.0),
            ActionCall(ActionLabel.PLACE_OBJECT, "ur3e", robot="ur3e",
                       location="centrifuge_slot", target=(0.0, -0.38, 0.13)),
            ActionCall(ActionLabel.OPEN_DOOR, "dosing_device"),
            ActionCall(ActionLabel.START_ACTION, "hotplate", value=999.0),
        ]
        for call in calls:
            rulebase.check_action(
                CheckContext(
                    state=rabit.state, call=call, model=rabit.model,
                    account_held_objects=True, enforce_workspace_bounds=True,
                    enforce_capacity=True,
                )
            )
        for var, entries in snapshot.items():
            assert rabit.state.entries(var) == entries, var
