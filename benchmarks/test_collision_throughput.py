"""Containment throughput: the sweep kernel vs a scalar first-hit loop.

Every guarded robot move probes its polled tool points, gripper tips and
held-vial tips against the deck's configured cuboids with
:meth:`BatchCollisionEngine.first_containing` — the Extended Simulator's
sweep kernel.  This benchmark times it on a seeded 200-point × 20-cuboid
scene against the scalar ``for box in cuboids: if box.contains(p)``
first-hit loop, asserts the two agree on every point, and requires the
kernel to be at least 5× faster.

A second row, reported but not gated, times the same pair on what one
guarded sweep probes: a ``hein`` move's 93 stacked probes (31 samples of
tool point, gripper tip and held-vial tip) against its 7-cuboid
obstacles+surfaces engine.
"""

import time

import numpy as np

from repro.analysis.report import format_table
from repro.core.actions import ActionCall, ActionLabel
from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.shapes import Cuboid
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.serve.session import default_serve_options
from repro.simulator.extended import build_sweep_engines, stack_probes

N_POINTS = 200
N_CUBOIDS = 20
MIN_SPEEDUP = 5.0
#: Kernel calls per timed sample, so timer resolution stays out of it.
CALLS_PER_SAMPLE = 20


def _scene(seed: int = 7):
    rng = np.random.default_rng(seed)
    cuboids = []
    for i in range(N_CUBOIDS):
        lo = rng.uniform(-1.0, 0.8, size=3)
        hi = lo + rng.uniform(0.05, 0.5, size=3)
        cuboids.append(Cuboid(tuple(lo), tuple(hi), name=f"box_{i}"))
    points = rng.uniform(-1.2, 1.2, size=(N_POINTS, 3))
    return cuboids, points


def _hein_sweep():
    """The cuboids and stacked probes of one guarded ``hein`` move with a
    held vial: what one Extended Simulator sweep hands the kernel."""
    deck = build_hein_deck()
    rabit, _, _ = make_rabit(deck, options=default_serve_options())
    rabit.state.set("robot_holding", "ur3e", "vial_1")
    call = ActionCall(
        ActionLabel.MOVE_ROBOT, "ur3e", robot="ur3e", target=(0.38, -0.05, 0.26)
    )
    job = rabit.trajectory_checker.prepare_sweep(call, rabit.state, rabit.model, True)
    cuboids = list(rabit.model.obstacles_for_frame(job.frame, exclude=job.exclude)) + list(
        rabit.model.surfaces_for_frame(job.frame, exclude=job.exclude)
    )
    _, engine = build_sweep_engines(rabit.model, job.frame, job.exclude)
    return cuboids, engine, stack_probes(job.samples, job.robot_model, job.held)


def _scalar_first_containing(cuboids, points):
    """The reference: per point, the first cuboid whose ``contains`` holds."""
    out = []
    for p in points:
        hit = -1
        for n, box in enumerate(cuboids):
            if box.contains(p):
                hit = n
                break
        out.append(hit)
    return out


def _compare(cuboids, engine, points, rounds=10):
    """Assert agreement on every point, then time both; (scalar s, kernel s).

    Each round times one scalar pass and CALLS_PER_SAMPLE kernel passes
    back to back, so a slow spell on the host lands on both; the best
    round of each counts."""
    assert engine.first_containing(points).tolist() == _scalar_first_containing(
        cuboids, points
    )
    t_scalar = t_batch = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        _scalar_first_containing(cuboids, points)
        t1 = time.perf_counter()
        for _ in range(CALLS_PER_SAMPLE):
            engine.first_containing(points)
        t2 = time.perf_counter()
        t_scalar = min(t_scalar, t1 - t0)
        t_batch = min(t_batch, (t2 - t1) / CALLS_PER_SAMPLE)
    return t_scalar, t_batch


def test_collision_throughput(emit, trend, benchmark):
    cuboids, points = _scene()
    engine = BatchCollisionEngine(cuboids)
    t_scalar, t_batch = _compare(cuboids, engine, points)
    speedup = t_scalar / t_batch

    hein_cuboids, hein_engine, probes = _hein_sweep()
    assert (len(probes), len(hein_engine)) == (93, 7)
    t_hein_scalar, t_hein_batch = _compare(hein_cuboids, hein_engine, probes)
    hein_speedup = t_hein_scalar / t_hein_batch

    pairs = N_POINTS * N_CUBOIDS
    rows = [
        [
            "scalar first-hit loop",
            f"{t_scalar * 1e3:.3f} ms",
            f"{N_POINTS / t_scalar:,.0f}",
            f"{pairs / t_scalar:,.0f}",
            "1.0x",
        ],
        [
            "first_containing",
            f"{t_batch * 1e3:.3f} ms",
            f"{N_POINTS / t_batch:,.0f}",
            f"{pairs / t_batch:,.0f}",
            f"{speedup:.1f}x",
        ],
        [
            "hein sweep, scalar (report only)",
            f"{t_hein_scalar * 1e3:.3f} ms",
            f"{len(probes) / t_hein_scalar:,.0f}",
            f"{len(probes) * len(hein_engine) / t_hein_scalar:,.0f}",
            "1.0x",
        ],
        [
            "hein sweep, first_containing",
            f"{t_hein_batch * 1e3:.3f} ms",
            f"{len(probes) / t_hein_batch:,.0f}",
            f"{len(probes) * len(hein_engine) / t_hein_batch:,.0f}",
            f"{hein_speedup:.1f}x",
        ],
    ]
    rendered = format_table(
        ["implementation", "pass time", "points/s", "pair checks/s", "speedup"],
        rows,
        title=(
            f"Containment throughput ({N_POINTS} points x {N_CUBOIDS} cuboids; "
            f"hein sweep {len(probes)} probes x {len(hein_engine)} cuboids; "
            f"0 disagreements)"
        ),
    )
    emit("collision_throughput", rendered)
    trend(
        "collision_throughput",
        {
            "scalar_ms": round(t_scalar * 1e3, 4),
            "batch_ms": round(t_batch * 1e3, 4),
            "speedup": round(speedup, 2),
            "points_per_second_batch": round(N_POINTS / t_batch),
            "pair_checks_per_second_batch": round(pairs / t_batch),
            "hein_sweep_scalar_us": round(t_hein_scalar * 1e6, 2),
            "hein_sweep_batch_us": round(t_hein_batch * 1e6, 2),
            "hein_sweep_speedup": round(hein_speedup, 2),
        },
    )

    assert speedup >= MIN_SPEEDUP, (
        f"first_containing only {speedup:.1f}x faster than the scalar loop "
        f"(required: {MIN_SPEEDUP}x)"
    )

    benchmark(lambda: engine.first_containing(points))
    benchmark.extra_info["speedup_vs_scalar"] = round(speedup, 1)
    benchmark.extra_info["hein_sweep_speedup"] = round(hein_speedup, 1)
    benchmark.extra_info["points_per_second_batch"] = round(N_POINTS / t_batch)
    benchmark.extra_info["points_per_second_scalar"] = round(N_POINTS / t_scalar)
