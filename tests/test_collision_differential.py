"""Differential suite: the packed containment engine and the sweeps
built on it, against their scalar references.

:class:`~repro.geometry.batch.BatchCollisionEngine` is the kernel the
Extended Simulator's sweep runs; a ``for box in cuboids: if
box.contains(p)`` loop is its reference, and this suite pins **exact**
agreement — identical containment and first-hit order, points on faces
included — and that the batched trajectory sweep gives the scalar
reference loop's verdicts.  It also pins
:func:`~repro.geometry.collision.segment_cuboid_entry_time`, the slab
test the sensor rule runs, on the degenerate cases: zero-length
segments, axis-parallel segments, segments grazing a face or ending
exactly on one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.collision import segment_cuboid_entry_time
from repro.geometry.shapes import Cuboid
from repro.geometry.vec import as_vec3


def random_scene(rng, n_cuboids):
    """A list of random cuboids."""
    cuboids = []
    for i in range(n_cuboids):
        lo = rng.uniform(-1.5, 1.0, 3)
        hi = lo + rng.uniform(0.0, 1.2, 3)
        cuboids.append(Cuboid(tuple(lo), tuple(hi), name=f"box_{i}"))
    return cuboids


class TestDegenerateGeometry:
    BOX = Cuboid((0, 0, 0), (1, 1, 1), name="unit")

    def check_pair(self, p0, p1):
        return segment_cuboid_entry_time(p0, p1, self.BOX)

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


class TestContainment:
    def test_contains_matches_scalar(self):
        rng = np.random.default_rng(5)
        cuboids = random_scene(rng, 8)
        engine = BatchCollisionEngine(cuboids)
        points = rng.uniform(-2, 2, (50, 3))
        # Snap some points exactly onto faces and corners.
        points[0] = cuboids[0].lo
        points[1] = cuboids[1].hi
        for p in range(2, 20):
            box = cuboids[int(rng.integers(len(cuboids)))]
            axis = int(rng.integers(3))
            points[p][axis] = box.lo[axis] if p % 2 else box.hi[axis]
        matrix = engine.contains_points(points)
        for p in range(len(points)):
            for n, cuboid in enumerate(cuboids):
                assert matrix[p, n] == cuboid.contains(points[p])

    def test_first_containing_matches_loop_order(self):
        overlapping = [
            Cuboid((0, 0, 0), (2, 2, 2), name="big"),
            Cuboid((0.5, 0.5, 0.5), (1.5, 1.5, 1.5), name="inner"),
        ]
        engine = BatchCollisionEngine(overlapping)
        idx = engine.first_containing([[1.0, 1.0, 1.0], [5, 5, 5]])
        assert idx[0] == 0  # lowest index wins, like the scalar loop
        assert idx[1] == -1
        rng = np.random.default_rng(6)
        cuboids = random_scene(rng, 10)
        points = rng.uniform(-2, 2, (200, 3))
        want = [
            next((n for n, box in enumerate(cuboids) if box.contains(p)), -1)
            for p in points
        ]
        assert BatchCollisionEngine(cuboids).first_containing(points).tolist() == want


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
    """The guard's batched sweep and the scalar reference loop return
    identical verdicts."""

    def test_random_moves_agree(self):
        from repro.core.actions import ActionCall, ActionLabel
        from repro.lab.decks import make_rabit
        from repro.lab.hein import build_hein_deck
        from repro.simulator.extended import ExtendedSimulator

        deck = build_hein_deck()
        rabit, proxies, _ = make_rabit(deck)
        checker = ExtendedSimulator({"ur3e": deck.ur3e})

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
            job = checker.prepare_sweep(
                call, rabit.state, rabit.model, account_held_objects=True
            )
            want = None if job is None else checker._sweep_scalar(
                call, rabit.model, job.frame, list(job.exclude),
                job.robot_model, job.held, job.samples,
            )
            got = checker.validate_trajectory(
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
        checker = ExtendedSimulator({"ur3e": deck.ur3e})
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
