"""Differential suite: the batch collision engine vs the scalar reference.

The scalar functions in :mod:`repro.geometry.collision` are the reference
implementation; :class:`~repro.geometry.batch.BatchCollisionEngine` is the
vectorized fast path that the Extended Simulator actually runs.  The fast
path is only admissible because this suite pins **exact** agreement —
bit-equal entry times, identical hit/miss decisions, identical first-hit
ordering — across randomized scenes (seeded ``numpy.random`` bulk sweeps
plus hypothesis-driven edge exploration), including the degenerate cases:
zero-length segments, axis-parallel segments, segments grazing a face or
ending exactly on one, and nonzero margins.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.collision import (
    first_collision,
    segment_cuboid_entry_time,
    segment_intersects_cuboid,
)
from repro.geometry.shapes import Cuboid
from repro.geometry.vec import as_vec3


def random_scene(rng, n_cuboids, with_margins=False):
    """A list of random cuboids (and per-cuboid margins)."""
    cuboids = []
    margins = []
    for i in range(n_cuboids):
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.0, 1.2, 3)
        cuboids.append(Cuboid(tuple(lo), tuple(hi), name=f"box_{i}"))
        margins.append(float(rng.uniform(0.0, 0.2)) if with_margins else 0.0)
    return cuboids, margins


def random_segments(rng, n_segments):
    """Random segments with boundary-degenerate cases mixed in."""
    starts = rng.uniform(-2.0, 2.0, (n_segments, 3))
    ends = rng.uniform(-2.0, 2.0, (n_segments, 3))
    for s in range(n_segments):
        mode = s % 7
        if mode == 1:  # zero-length segment
            ends[s] = starts[s]
        elif mode == 2:  # axis-parallel segment
            axis = int(rng.integers(3))
            ends[s][axis] = starts[s][axis]
        elif mode == 3:  # two axes frozen (parallel to an edge direction)
            keep = int(rng.integers(3))
            for axis in range(3):
                if axis != keep:
                    ends[s][axis] = starts[s][axis]
    return starts, ends


class TestSegmentEntryAgreement:
    """segment_entry_times == segment_cuboid_entry_time on every pair."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("with_margins", [False, True])
    def test_randomized_pairs_agree_exactly(self, seed, with_margins):
        rng = np.random.default_rng(seed)
        cuboids, margins = random_scene(rng, 12, with_margins=with_margins)
        starts, ends = random_segments(rng, 24)
        # Snap some coordinates exactly onto cuboid faces to probe the
        # closed-boundary convention (grazing, ending on a face).
        for s in range(0, len(starts), 5):
            box = cuboids[int(rng.integers(len(cuboids)))]
            axis = int(rng.integers(3))
            starts[s][axis] = box.lo[axis]
            ends[s + 1 if s + 1 < len(ends) else s][axis] = box.hi[axis]

        engine = BatchCollisionEngine(cuboids, margin=margins)
        times = engine.segment_entry_times(starts, ends)

        disagreements = []
        for s in range(len(starts)):
            for n, (cuboid, margin) in enumerate(zip(cuboids, margins)):
                box = cuboid.inflated(margin) if margin > 0 else cuboid
                want = segment_cuboid_entry_time(starts[s], ends[s], box)
                got = None if np.isnan(times[s, n]) else float(times[s, n])
                if want != got:
                    disagreements.append((s, n, want, got))
        assert disagreements == []

    def test_case_count_meets_floor(self):
        """The acceptance criterion demands >= 1000 randomized pairs."""
        rng = np.random.default_rng(99)
        cuboids, margins = random_scene(rng, 25, with_margins=True)
        starts, ends = random_segments(rng, 60)
        engine = BatchCollisionEngine(cuboids, margin=margins)
        times = engine.segment_entry_times(starts, ends)
        checked = 0
        for s in range(len(starts)):
            for n, (cuboid, margin) in enumerate(zip(cuboids, margins)):
                box = cuboid.inflated(margin) if margin > 0 else cuboid
                want = segment_cuboid_entry_time(starts[s], ends[s], box)
                got = None if np.isnan(times[s, n]) else float(times[s, n])
                assert want == got, (s, n, want, got)
                checked += 1
        assert checked >= 1000

    @given(
        p0=st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(3)]),
        p1=st.tuples(*[st.floats(-2, 2, allow_nan=False) for _ in range(3)]),
        lo=st.tuples(*[st.floats(-1.5, 0.5, allow_nan=False) for _ in range(3)]),
        size=st.tuples(*[st.floats(0, 1.5, allow_nan=False) for _ in range(3)]),
        margin=st.floats(0, 0.3, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_single_pair(self, p0, p1, lo, size, margin):
        hi = tuple(a + b for a, b in zip(lo, size))
        cuboid = Cuboid(lo, hi, name="hyp")
        engine = BatchCollisionEngine([cuboid], margin=margin)
        box = cuboid.inflated(margin) if margin > 0 else cuboid
        want = segment_cuboid_entry_time(p0, p1, box)
        t = engine.segment_entry_times([p0], [p1])[0, 0]
        got = None if np.isnan(t) else float(t)
        assert want == got
        assert segment_intersects_cuboid(p0, p1, cuboid, margin=margin) == (
            got is not None
        )


class TestDegenerateGeometry:
    BOX = Cuboid((0, 0, 0), (1, 1, 1), name="unit")

    def check_pair(self, p0, p1):
        engine = BatchCollisionEngine([self.BOX])
        t = engine.segment_entry_times([p0], [p1])[0, 0]
        got = None if np.isnan(t) else float(t)
        assert got == segment_cuboid_entry_time(p0, p1, self.BOX)
        return got

    def test_zero_length_inside(self):
        assert self.check_pair([0.5, 0.5, 0.5], [0.5, 0.5, 0.5]) == 0.0

    def test_zero_length_on_corner(self):
        assert self.check_pair([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0.0

    def test_zero_length_outside(self):
        assert self.check_pair([1.5, 0.5, 0.5], [1.5, 0.5, 0.5]) is None

    def test_axis_parallel_through(self):
        assert self.check_pair([-1, 0.5, 0.5], [2, 0.5, 0.5]) == pytest.approx(1 / 3)

    def test_axis_parallel_sliding_on_face(self):
        assert self.check_pair([-1, 0.5, 1.0], [2, 0.5, 1.0]) is not None

    def test_axis_parallel_outside_slab(self):
        assert self.check_pair([-1, 1.5, 0.5], [2, 1.5, 0.5]) is None

    def test_graze_edge(self):
        assert self.check_pair([-1, -1, 0.5], [1, 1, 0.5]) == 0.5

    def test_ends_exactly_on_face(self):
        assert self.check_pair([-1, 0.5, 0.5], [0.0, 0.5, 0.5]) == 1.0

    def test_subepsilon_segment_ending_on_face(self):
        # Regression for the parallel-branch epsilon: a displacement below
        # the old 1e-15 threshold used to be classified parallel and
        # rejected via p0, even though the endpoint lies exactly on the
        # face that ``contains`` counts as inside.
        got = self.check_pair([-5e-16, 0.5, 0.5], [0.0, 0.5, 0.5])
        assert got == 1.0


class TestFirstHitAgreement:
    """polyline_first_hit == first_collision: obstacle, segment, t, point."""

    @pytest.mark.parametrize("seed", [7, 8, 9])
    @pytest.mark.parametrize("margin", [0.0, 0.07])
    def test_random_polylines(self, seed, margin):
        rng = np.random.default_rng(seed)
        cuboids, _ = random_scene(rng, 10)
        engine = BatchCollisionEngine(cuboids, margin=margin)
        for _ in range(40):
            waypoints = rng.uniform(-2.0, 2.0, (int(rng.integers(2, 8)), 3))
            want = first_collision(waypoints, cuboids, margin=margin)
            got = engine.polyline_first_hit(waypoints)
            if want is None:
                assert got is None
            else:
                assert got is not None
                assert (got.obstacle, got.waypoint_index, got.t) == (
                    want.obstacle,
                    want.waypoint_index,
                    want.t,
                )
                assert got.point == want.point

    def test_tie_breaks_to_first_cuboid(self):
        # Two identical cuboids: the scalar loop keeps the first iterated.
        twin_a = Cuboid((0, 0, 0), (1, 1, 1), name="twin_a")
        twin_b = Cuboid((0, 0, 0), (1, 1, 1), name="twin_b")
        waypoints = [[-1, 0.5, 0.5], [2, 0.5, 0.5]]
        want = first_collision(waypoints, [twin_a, twin_b])
        got = BatchCollisionEngine([twin_a, twin_b]).polyline_first_hit(waypoints)
        assert want is not None and got is not None
        assert got.obstacle == want.obstacle == "twin_a"

    def test_empty_engine_and_short_polyline(self):
        engine = BatchCollisionEngine([])
        assert engine.polyline_first_hit([[0, 0, 0], [1, 1, 1]]) is None
        engine = BatchCollisionEngine([Cuboid((0, 0, 0), (1, 1, 1))])
        assert engine.polyline_first_hit([[0.5, 0.5, 0.5]]) is None


class TestStackedPolylineAgreement:
    """polylines_hit_indices row s == polyline_first_hit(paths[s]).

    This is the (S, P, 3) query the Extended Simulator's full-arm link
    sweep feeds straight from the batched FK kernel."""

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("margin", [0.0, 0.045])
    def test_random_stacks(self, seed, margin):
        rng = np.random.default_rng(seed)
        cuboids, _ = random_scene(rng, 8)
        engine = BatchCollisionEngine(cuboids, margin=margin)
        paths = rng.uniform(-2.0, 2.0, (30, 5, 3))
        hits = engine.polylines_hit_indices(paths)
        assert hits.shape == (30,)
        for s in range(30):
            want = engine.polyline_first_hit(paths[s])
            if want is None:
                assert hits[s] == -1
            else:
                assert engine.names[hits[s]] == want.obstacle

    def test_empty_cases(self):
        engine = BatchCollisionEngine([Cuboid((0, 0, 0), (1, 1, 1))])
        assert np.array_equal(
            engine.polylines_hit_indices(np.zeros((3, 1, 3))), [-1, -1, -1]
        )
        empty = BatchCollisionEngine([])
        assert np.array_equal(
            empty.polylines_hit_indices(np.zeros((2, 4, 3))), [-1, -1]
        )
        with pytest.raises(ValueError, match=r"\(S, P, 3\)"):
            engine.polylines_hit_indices(np.zeros((4, 3)))


class TestIncrementalUpdates:
    """add/update/remove keep the packed arrays in lockstep with scalar."""

    def test_update_moves_a_cuboid(self):
        rng = np.random.default_rng(42)
        cuboids, _ = random_scene(rng, 5)
        engine = BatchCollisionEngine(cuboids, margin=0.05)
        # A held vial moves: replace row 2 and re-check the whole scene.
        moved = cuboids[2].translated((0.3, -0.2, 0.1))
        engine.update(2, moved)
        cuboids[2] = moved
        starts, ends = random_segments(rng, 15)
        times = engine.segment_entry_times(starts, ends)
        for s in range(len(starts)):
            for n, cuboid in enumerate(cuboids):
                want = segment_cuboid_entry_time(starts[s], ends[s], cuboid.inflated(0.05))
                got = None if np.isnan(times[s, n]) else float(times[s, n])
                assert want == got

    def test_add_and_remove(self):
        box_a = Cuboid((0, 0, 0), (1, 1, 1), name="a")
        box_b = Cuboid((2, 0, 0), (3, 1, 1), name="b")
        engine = BatchCollisionEngine([box_a])
        idx = engine.add(box_b)
        assert idx == 1 and len(engine) == 2
        hit = engine.polyline_first_hit([[2.5, 0.5, -1], [2.5, 0.5, 2]])
        assert hit is not None and hit.obstacle == "b"
        engine.remove(engine.index_of("a"))
        assert engine.names == ["b"]
        assert engine.polyline_first_hit([[0.5, 0.5, -1], [0.5, 0.5, 2]]) is None

    def test_update_can_change_margin(self):
        box = Cuboid((0, 0, 0), (1, 1, 1), name="box")
        engine = BatchCollisionEngine([box])
        a, b = [-1, 0.5, 1.05], [2, 0.5, 1.05]
        assert np.isnan(engine.segment_entry_times([a], [b])[0, 0])
        engine.update(0, box, margin=0.1)
        assert not np.isnan(engine.segment_entry_times([a], [b])[0, 0])


class TestContainment:
    def test_contains_matches_scalar(self):
        rng = np.random.default_rng(5)
        cuboids, margins = random_scene(rng, 8, with_margins=True)
        engine = BatchCollisionEngine(cuboids, margin=margins)
        points = rng.uniform(-2, 2, (50, 3))
        # Snap some points exactly onto faces.
        points[0] = cuboids[0].lo
        points[1] = cuboids[1].hi
        matrix = engine.contains_points(points)
        for p in range(len(points)):
            for n, (cuboid, margin) in enumerate(zip(cuboids, margins)):
                box = cuboid.inflated(margin) if margin > 0 else cuboid
                assert matrix[p, n] == box.contains(points[p])

    def test_first_containing_matches_loop_order(self):
        overlapping = [
            Cuboid((0, 0, 0), (2, 2, 2), name="big"),
            Cuboid((0.5, 0.5, 0.5), (1.5, 1.5, 1.5), name="inner"),
        ]
        engine = BatchCollisionEngine(overlapping)
        idx = engine.first_containing([[1.0, 1.0, 1.0], [5, 5, 5]])
        assert idx[0] == 0  # lowest index wins, like the scalar loop
        assert idx[1] == -1


def _numpy_contains(box, point, tol=0.0):
    """The vector form ``Cuboid.contains`` replaced: the oracle."""
    p = as_vec3(point)
    with np.errstate(all="ignore"):  # inf - inf in lo - tol is NaN, as in IEEE
        return bool(np.all(p >= box.lo - tol) and np.all(p <= box.hi + tol))


_EDGES = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, np.nan, np.inf, -np.inf]
_COORD = st.one_of(st.floats(), st.sampled_from(_EDGES))
_CORNER = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6), st.sampled_from([0.0, -0.0, np.inf, -np.inf])
)
_TOL = st.one_of(
    st.just(0.0),
    st.just(0),
    st.floats(min_value=-0.5, max_value=0.5),
    st.floats(),
    st.integers(-2, 2),
    st.floats(min_value=-0.5, max_value=0.5).map(np.float32),
    st.floats(min_value=-0.5, max_value=0.5).map(np.float64),
)


def _as_input(coords, kind):
    if kind == "tuple":
        return tuple(coords)
    if kind == "float64":
        return np.array(coords, dtype=np.float64)
    if kind == "float32":
        with np.errstate(over="ignore"):
            return np.array(coords, dtype=np.float32)
    if kind == "int":
        return [int(c) if math.isfinite(c) and abs(c) < 1e15 else c for c in coords]
    return list(coords)


class TestPointInBoxDifferential:
    """``Cuboid.contains`` on plain floats agrees with the numpy form on
    every input: faces, every sign of ``tol``, NaN, infinities, -0.0,
    and int, float32, list, tuple and ndarray points."""

    @settings(max_examples=600, deadline=None)
    @given(data=st.data())
    def test_plain_floats_match_the_numpy_form(self, data):
        a = data.draw(st.tuples(_CORNER, _CORNER, _CORNER))
        b = data.draw(st.tuples(_CORNER, _CORNER, _CORNER))
        box = Cuboid(tuple(map(min, a, b)), tuple(map(max, a, b)))
        tol = data.draw(_TOL)
        coords = []
        for axis in range(3):
            lo, hi = box.min_corner[axis], box.max_corner[axis]
            face = [lo, hi, lo - float(tol), hi + float(tol), (lo + hi) / 2]
            coords.append(data.draw(st.one_of(_COORD, st.sampled_from(face))))
        point = _as_input(coords, data.draw(st.sampled_from(
            ["list", "tuple", "float64", "float32", "int"]
        )))
        assert box.contains(point, tol) is _numpy_contains(box, point, tol)
        assert box.contains(point) is _numpy_contains(box, point)

    def test_points_on_faces_and_signed_zero(self):
        box = Cuboid((-0.0, 0.0, -1.0), (1.0, 2.0, 0.0))
        for point in ([0.0, 0.0, -1.0], [-0.0, -0.0, -0.0], [1.0, 2.0, 0.0],
                      [1.0, 2.0, 5e-324], [np.nextafter(1.0, 2.0), 1.0, -0.5]):
            for tol in (0.0, -0.0, 1e-9, -1e-9, np.inf, -np.inf, np.nan):
                assert box.contains(point, tol) is _numpy_contains(box, point, tol)

    @pytest.mark.parametrize(
        "point",
        [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[0.5, 0.5, 0.5]], [], 0.5, None,
         "abc", ["a", "b", "c"], np.zeros(4), np.zeros((1, 3))],
        ids=repr,
    )
    def test_wrong_arity_and_non_numeric_points_raise_value_error(self, point):
        box = Cuboid((0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError) as expected:
            _numpy_contains(box, point)
        with pytest.raises(ValueError) as got:
            box.contains(point)
        assert str(got.value) == str(expected.value)


class TestExtendedSimulatorDifferential:
    """Batch and scalar trajectory sweeps return identical verdicts."""

    def test_random_moves_agree(self):
        from repro.core.actions import ActionCall, ActionLabel
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck
        from repro.simulator.extended import ExtendedSimulator

        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        batch = ExtendedSimulator({"ur3e": deck.ur3e}, use_batch=True)
        scalar = ExtendedSimulator({"ur3e": deck.ur3e}, use_batch=False)

        rng = np.random.default_rng(11)
        verdicts = []
        for i in range(60):
            target = (
                float(rng.uniform(-0.1, 0.45)),
                float(rng.uniform(-0.2, 0.45)),
                float(rng.uniform(0.0, 0.45)),
            )
            call = ActionCall(
                ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=target
            )
            if i % 3 == 0:
                rabit.state.set("robot_holding", "ur3e", "vial_1")
            else:
                rabit.state.set("robot_holding", "ur3e", None)
            want = scalar.validate_trajectory(
                call, rabit.state, rabit.model, account_held_objects=True
            )
            got = batch.validate_trajectory(
                call, rabit.state, rabit.model, account_held_objects=True
            )
            assert got == want, (target, want, got)
            verdicts.append(want)
        # The sweep must exercise both outcomes to mean anything.
        assert any(v is None for v in verdicts)
        assert any(v is not None for v in verdicts)

    def test_engine_cache_invalidated_by_model_mutation(self):
        from repro.core.actions import ActionCall, ActionLabel
        from repro.core.model import ObstacleModel
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck
        from repro.simulator.extended import ExtendedSimulator

        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        checker = ExtendedSimulator({"ur3e": deck.ur3e}, use_batch=True)
        call = ActionCall(
            ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(0.3, -0.05, 0.28)
        )
        assert checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        ) is None
        # Drop a wall of a cuboid across the whole approach: a stale packed
        # engine would still pass; the revision bump must rebuild it.
        rabit.model.add_obstacle(
            ObstacleModel(
                name="surprise_block",
                frames={"ur3e": Cuboid((-1, -1, -1), (1, 1, 1), name="surprise_block")},
            )
        )
        problem = checker.validate_trajectory(
            call, rabit.state, rabit.model, account_held_objects=True
        )
        assert problem is not None and "surprise_block" in problem
