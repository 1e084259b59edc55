"""One containment pass per sweep: the fused probes give today's hits.

The Extended Simulator and the serve batcher stack a sweep's tool
points, gripper tips and (when RABIT believes the arm holds a vial)
vial tips into one ``first_containing`` pass on the obstacles+surfaces
engine, and count a tool-point hit only below the obstacle count.  This
suite pins that the split result equals three separate
``first_containing`` calls, that the batched sweep keeps the scalar
reference's message, walls included, and counts the passes.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.actions import ActionCall, ActionLabel
from repro.core.model import DeviceModel, ObstacleModel, RabitLabModel
from repro.core.monitor import RabitOptions
from repro.devices.base import DeviceKind
from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.shapes import Cuboid
from repro.geometry.walls import SoftwareWall
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.serve.batcher import SweepBatcher
from repro.simulator.extended import (
    ExtendedSimulator,
    SweepJob,
    build_sweep_engines,
    split_probe_hits,
    stack_probes,
)

FRAME = "arm"
RESOLUTION = ExtendedSimulator.RESOLUTION

coord = st.floats(-1.0, 1.0, allow_nan=False)
point = st.tuples(coord, coord, coord)
box = st.tuples(point, st.tuples(*[st.floats(0.0, 0.8, allow_nan=False)] * 3))
drop = st.floats(0.0, 0.3, allow_nan=False)


def _model(obstacles, surfaces, walls=(), bounds=None, clearance=0.025, held_drop=0.06):
    model = RabitLabModel("sweep-test")
    model.add_device(
        DeviceModel(
            name=FRAME,
            kind=DeviceKind.ROBOT_ARM,
            class_name="RobotArmDevice",
            gripper_clearance=clearance,
            held_drop=held_drop,
        )
    )
    for prefix, boxes, surface in (("obst", obstacles, False), ("surf", surfaces, True)):
        for i, (lo, size) in enumerate(boxes):
            hi = tuple(a + b for a, b in zip(lo, size))
            name = f"{prefix}_{i}"
            model.add_obstacle(
                ObstacleModel(name, {FRAME: Cuboid(lo, hi, name=name)}, surface=surface)
            )
    model.walls[FRAME] = list(walls)
    if bounds is not None:
        model.workspace_bounds[FRAME] = bounds
    return model


def _samples(start, end):
    """The tool line exactly as ``prepare_sweep`` samples it."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    steps = np.arange(RESOLUTION + 1, dtype=np.float64) / RESOLUTION
    return start[None, :] + (end - start)[None, :] * steps[:, None]


def _call():
    return ActionCall(ActionLabel.MOVE_ROBOT, FRAME, robot=FRAME, target=(0.0, 0.0, 0.0))


scene = st.fixed_dictionaries(
    {
        "obstacles": st.lists(box, max_size=4),
        "surfaces": st.lists(box, max_size=3),
        "start": point,
        "end": point,
        "held": st.sampled_from([None, "vial_1"]),
        "clearance": drop,
        "held_drop": drop,
        "excluded": st.sets(st.sampled_from(["obst_0", "obst_2", "surf_1"]), max_size=2),
        "wall": st.one_of(
            st.none(),
            st.tuples(point.filter(lambda n: max(map(abs, n)) > 0.1), coord),
        ),
        "bounded": st.booleans(),
    }
)


def _scene_model(s):
    walls = ()
    if s["wall"] is not None:
        walls = (SoftwareWall(s["wall"][0], s["wall"][1], name="divider"),)
    bounds = Cuboid((-0.9, -0.9, -0.9), (0.9, 0.9, 0.9)) if s["bounded"] else None
    return _model(
        s["obstacles"], s["surfaces"], walls, bounds, s["clearance"], s["held_drop"]
    )


class TestFusedProbes:
    @given(s=scene)
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_three_calls(self, s):
        model = _scene_model(s)
        robot_model = model.device(FRAME)
        samples = _samples(s["start"], s["end"])
        obst_engine, full_engine = build_sweep_engines(model, FRAME, sorted(s["excluded"]))

        fused = split_probe_hits(
            full_engine.first_containing(stack_probes(samples, robot_model, s["held"])),
            len(samples),
            len(obst_engine),
            s["held"],
        )
        tips = samples - np.array([0.0, 0.0, robot_model.gripper_clearance])
        separate = [
            obst_engine.first_containing(samples),
            full_engine.first_containing(tips),
            None,
        ]
        if s["held"] is not None:
            vial_tips = samples - np.array([0.0, 0.0, robot_model.held_drop])
            separate[2] = full_engine.first_containing(vial_tips)

        for got, want in zip(fused, separate):
            if want is None:
                assert got is None
            else:
                assert np.array_equal(got, want), (got, want)

    @given(s=scene)
    @settings(max_examples=300, deadline=None)
    def test_batch_sweep_gives_the_scalar_message(self, s):
        model = _scene_model(s)
        samples = _samples(s["start"], s["end"])
        simulator = ExtendedSimulator({})
        args = (_call(), model, FRAME, sorted(s["excluded"]), model.device(FRAME), s["held"], samples)
        assert simulator._sweep_batch(*args) == simulator._sweep_scalar(*args)

    @given(jobs=st.lists(scene, min_size=1, max_size=5), shared=scene)
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_batcher_group_gives_the_inline_verdicts(self, jobs, shared):
        # One geometry group: every job sweeps the shared scene's
        # cuboids, with its own path and gripper load.
        model = _scene_model(shared)
        robot_model = model.device(FRAME)
        exclude = tuple(sorted(shared["excluded"]))
        simulator = ExtendedSimulator({})
        sweep_jobs = [
            SweepJob(
                call=_call(), model=model, frame=FRAME, exclude=exclude,
                robot_model=robot_model, held=s["held"],
                samples=_samples(s["start"], s["end"]),
            )
            for s in jobs
        ]
        inline = [
            simulator._sweep_batch(
                job.call, model, FRAME, list(exclude), robot_model, job.held, job.samples
            )
            for job in sweep_jobs
        ]

        calls = []
        many = BatchCollisionEngine.first_containing_many

        def counting(engine, arrays):
            calls.append(len(arrays))
            return many(engine, arrays)

        BatchCollisionEngine.first_containing_many = counting
        loop = asyncio.new_event_loop()
        try:
            futures = [loop.create_future() for _ in sweep_jobs]
            SweepBatcher()._run_group(
                "group", [(job, "group", f) for job, f in zip(sweep_jobs, futures)]
            )
            batched = [f.result() for f in futures]
        finally:
            loop.close()
            BatchCollisionEngine.first_containing_many = many
        assert batched == inline
        assert calls == [len(sweep_jobs)]


class TestOnePassPerSweep:
    """A guarded move's sweep makes one ``first_containing`` call, with or
    without a held vial (two or three before the probes were fused)."""

    @pytest.mark.parametrize("holding", [None, "vial_1"])
    def test_validate_trajectory_makes_one_containment_call(self, monkeypatch, holding):
        deck = build_hein_deck()
        options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
        rabit, _, _ = make_rabit(deck, options=options)
        rabit.state.set("robot_holding", "ur3e", holding)
        calls = []
        first = BatchCollisionEngine.first_containing

        def counting(engine, points):
            calls.append(len(points))
            return first(engine, points)

        monkeypatch.setattr(BatchCollisionEngine, "first_containing", counting)
        for target in ((0.3, -0.05, 0.28), (0.12, 0.38, 0.08)):
            call = ActionCall(ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=target)
            rabit.trajectory_checker.validate_trajectory(
                call, rabit.state, rabit.model, account_held_objects=True
            )
        probes = 3 if holding else 2
        assert calls == [probes * (RESOLUTION + 1)] * 2


class TestObliqueWall:
    """The batched wall test is ``SoftwareWall.allows``'s, bit for bit.

    On an oblique wall, ``samples @ n`` can round the dot product
    differently in the last bit from ``np.dot(n, p)``, so points on the
    boundary got the opposite verdict.  Every point here lies on the
    wall's tolerance plane, where that bit decides."""

    @pytest.mark.parametrize("seed", range(8))
    def test_boundary_points_get_the_scalar_verdict(self, seed):
        rng = np.random.default_rng(seed)
        simulator = ExtendedSimulator({})
        disagreements = []
        for _ in range(25):
            wall = SoftwareWall(tuple(rng.normal(size=3)), float(rng.normal()), name="oblique")
            n = np.asarray(wall.normal)
            model = _model([], [], walls=[wall])
            for p in rng.uniform(-1.0, 1.0, size=(RESOLUTION + 1, 3)):
                on_plane = p - (np.dot(n, p) - (wall.offset + 1e-9)) * n
                samples = np.repeat(on_plane[None, :], RESOLUTION + 1, axis=0)
                args = (_call(), model, FRAME, [], model.device(FRAME), None, samples)
                want = simulator._sweep_scalar(*args)
                got = simulator._sweep_batch(*args)
                if got != want:
                    disagreements.append((tuple(on_plane), want, got))
        assert disagreements == []

    @pytest.mark.parametrize(
        "point, blocked",
        [
            # The matrix-vector form allowed this point; allows() blocks it.
            ((-0.4252610420823675, -0.8984109907193858, -0.2238536452049156), True),
            # ... and blocked this one, which allows() lets through.
            ((0.9589458261944996, -0.44612648551680284, -0.3837329311621493), False),
        ],
    )
    def test_boundary_point(self, point, blocked):
        wall = SoftwareWall((1.0, -2.0, 3.0), 0.7, name="oblique")
        assert wall.allows(point) is not blocked
        model = _model([], [], walls=[wall])
        samples = np.repeat(np.array([point]), RESOLUTION + 1, axis=0)
        args = (_call(), model, FRAME, [], model.device(FRAME), None, samples)
        simulator = ExtendedSimulator({})
        want = simulator._sweep_scalar(*args)
        assert want == (
            "simulated trajectory of 'arm' crosses software wall 'oblique'"
            if blocked
            else None
        )
        assert simulator._sweep_batch(*args) == want
