"""Seeded random-DAG generation: workflow-shaped fault injection.

Where :mod:`repro.faults.montecarlo` mutates the one Fig. 5 preset,
the fuzzer *composes* whole workflows from the step vocabulary —
random move/pick/door/dose sequences over the testbed deck, optionally
with failure-edge recovery tails — and scores RABIT against unmonitored
ground truth with the same confusion-matrix machinery
(``run_monte_carlo(generator="dag")``).

Determinism contract (identical to the mutant sweep): fuzz case *i* of
a sweep seeded *s* is a pure function of ``(s, i)`` — its RNG derives
from ``SeedSequence(s, spawn_key=(i,))``, so growing the sample count,
reordering execution, or sharding across a process pool never changes
an earlier case.  Every generated DAG passes full validation before it
runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.workflow.dag import WorkflowDAG
from repro.workflow.executor import run_dag

__all__ = ["random_dag", "score_dag", "fuzz_descriptions"]

#: ViperX-reachable named locations the generator moves between.
_VIPERX_LOCATIONS: Tuple[str, ...] = (
    "grid_nw_viperx_safe",
    "grid_nw_viperx",
    "dosing_approach_viperx",
    "dosing_safe_viperx",
    "dosing_pickup_viperx",
    "centrifuge_approach_viperx",
    "centrifuge_slot_viperx",
)

#: Ned2-reachable named locations.
_NED2_LOCATIONS: Tuple[str, ...] = ("grid_ne_ned2_safe", "grid_ne_ned2")

#: Raw-coordinate probe box (viperx frame): spans reachable free space
#: *and* the dosing-device / platform neighbourhood, so some sampled
#: poses collide and some are fine — both confusion-matrix columns stay
#: populated.
_POSE_LO = np.array([0.15, -0.30, 0.02])
_POSE_HI = np.array([0.55, 0.35, 0.35])

#: Action vocabulary with sampling weights: movement dominates (as in
#: real scripts), device actions and door toggles salt in the hazards.
_ACTIONS: Tuple[Tuple[str, float], ...] = (
    ("move_viperx", 0.30),
    ("move_ned2", 0.10),
    ("move_pose", 0.12),
    ("door_toggle", 0.12),
    ("run_dosing", 0.08),
    ("stop_dosing", 0.06),
    ("pick_grid", 0.08),
    ("place_grid", 0.08),
    ("spin", 0.06),
)


def _rng_for_case(base_seed: int, index: int) -> np.random.Generator:
    """The RNG owned by fuzz case ``(base_seed, index)`` — the same
    spawn-key derivation as the mutant sweep."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(index,)))


def random_dag(base_seed: int, index: int) -> WorkflowDAG:
    """Generate fuzz case *index* of the sweep seeded *base_seed*.

    Always a valid DAG on the testbed deck: a linear backbone of 4-11
    sampled actions, sometimes ending in a recovery tail reached by
    failure edges from the riskier backbone nodes.
    """
    rng = _rng_for_case(base_seed, index)
    dag = WorkflowDAG(
        f"fuzz_{base_seed}_{index}",
        deck="testbed",
        description=f"fuzzed workflow (seed {base_seed}, case {index})",
    )
    names = [name for name, _ in _ACTIONS]
    weights = np.array([weight for _, weight in _ACTIONS])
    weights = weights / weights.sum()
    length = int(rng.integers(4, 12))
    door_state = "closed"
    risky: List[str] = []
    for position in range(length):
        action = str(rng.choice(names, p=weights))
        node_id = f"n{position:02d}_{action}"
        if action == "move_viperx":
            location = str(rng.choice(_VIPERX_LOCATIONS))
            dag.then(node_id, "move", robot="viperx", location=location)
            if "pickup" in location or "slot" in location:
                risky.append(node_id)
        elif action == "move_ned2":
            dag.then(
                node_id, "move", robot="ned2",
                location=str(rng.choice(_NED2_LOCATIONS)),
            )
        elif action == "move_pose":
            pose = _POSE_LO + rng.random(3) * (_POSE_HI - _POSE_LO)
            dag.then(
                node_id, "move_pose", robot="viperx",
                target=[round(float(v), 3) for v in pose],
            )
            risky.append(node_id)
        elif action == "door_toggle":
            door_state = "open" if door_state == "closed" else "closed"
            dag.then(node_id, "set_door", device="dosing_device", state=door_state)
        elif action == "run_dosing":
            quantity = float(rng.choice([2.0, 5.0, 15.0]))
            dag.then(
                node_id, "run_action", device="dosing_device",
                delay=3.0, quantity=quantity,
            )
            risky.append(node_id)
        elif action == "stop_dosing":
            dag.then(node_id, "stop_action", device="dosing_device")
        elif action == "pick_grid":
            dag.then(
                node_id, "pick_up_object", robot="viperx",
                safe_location="grid_nw_viperx_safe",
                pickup_location="grid_nw_viperx",
            )
        elif action == "place_grid":
            dag.then(
                node_id, "place_object", robot="viperx",
                safe_location="grid_nw_viperx_safe",
                place_location="grid_nw_viperx",
            )
        else:  # spin
            dag.then(
                node_id, "start_action", device="centrifuge",
                value=float(rng.choice([1000.0, 3000.0, 6000.0])),
            )
            risky.append(node_id)
    # A third of the cases declare a recovery tail: risky nodes route
    # their failures into a go-home + sleep sequence instead of halting.
    if risky and rng.random() < (1.0 / 3.0):
        dag.then("recover_home", "go_home", robot="viperx")
        dag.then("recover_sleep", "go_sleep", robot="viperx")
        for node_id in risky:
            if dag.successor(node_id, "failure") is None:
                dag.edge(node_id, "recover_home", on="failure")
    dag.validate()
    return dag


def score_dag(index: int, base_seed: int) -> "MutantOutcome":
    """Run fuzz case ``(base_seed, index)`` twice — unmonitored ground
    truth, then under modified RABIT — and classify the outcome.

    The DAG-generator analogue of :func:`repro.faults.montecarlo.
    score_mutant`: a pure function of the pair, so the sweep shards and
    merges exactly like the mutant sweep."""
    from repro.core.monitor import RabitOptions
    from repro.faults.montecarlo import MutantOutcome

    dag = random_dag(base_seed, index)
    description = f"dag {dag.name}: {len(dag.nodes)} nodes"
    try:
        truth_ctx, truth = run_dag(dag, monitored=False)
        damage = tuple(sorted({d.kind for d in truth_ctx.world.damage_log}))
        if truth.stopped_by_device:
            damage = damage + ("device_fault_halt",)
        _, guarded = run_dag(dag, options=RabitOptions.modified())
    except Exception as exc:  # noqa: BLE001 - classify, don't crash the sweep
        return MutantOutcome(
            seed=index,
            description=f"{description} (errored: {type(exc).__name__})",
            harmful=True,
            detected=False,
            damage_kinds=("harness_error",),
        )
    return MutantOutcome(
        seed=index,
        description=description,
        harmful=bool(damage),
        detected=guarded.stopped_by_rabit,
        damage_kinds=damage,
    )


def fuzz_descriptions(base_seed: int, samples: int) -> List[str]:
    """Node-id signatures of the first *samples* cases (a cheap
    determinism probe that never touches a deck)."""
    return [
        ",".join(random_dag(base_seed, index).nodes) for index in range(samples)
    ]
