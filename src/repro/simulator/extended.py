"""The Extended Simulator: trajectory sweeps against device cuboids.

Implements Fig. 2 line 9's ``ValidTrajectory(a_next)``.  Where plain RABIT
checks only the *target* point, the Extended Simulator polls the full
planned trajectory of the commanded arm — starting from the arm's **actual
current posture** (it polls the robot, so a previous silently-skipped move
cannot fool it; this is how it catches the §IV footnote-2 scenario) — and
sweeps:

- the polled tool point against every configured obstacle cuboid,
- the gripper tip against obstacles **and** support surfaces,
- the held vial's tip likewise, when RABIT believes the arm holds one and
  the held-object modification is enabled,
- every polled point against the frame's software walls and (when
  configured) workspace bounds.

All geometry comes from RABIT's *configuration* (the JSON-derived
:class:`~repro.core.model.RabitLabModel`), never from ground truth — the
simulator is only as good as the researcher's cuboid entries, which is
the paper's stated limitation about non-cuboid devices.

Two sweep implementations coexist:

- :meth:`ExtendedSimulator._sweep_scalar` is the reference: a per-sample
  Python loop, verbatim the paper's description.  Only the differential
  tests call it.
- :meth:`ExtendedSimulator._sweep_batch`, which every guarded command
  runs, packs the deck's cuboids into a cached
  :class:`~repro.geometry.batch.BatchCollisionEngine` per ``(frame,
  excluded devices)`` and probes every polled sample against every
  cuboid in one broadcasted pass.  Engines are invalidated by the
  model's ``geometry_revision``, so time multiplexing swapping a
  sleeping arm's cuboid in or out rebuilds them.

The two produce identical verdicts and identical messages; the
differential test suite pins that equivalence.

Like the ground-truth physics, the sweep reduces the arm to its polled
tool point, gripper tip and held-vial tip, so simulator and device model
the same body.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import ActionCall, ActionLabel
from repro.core.model import RabitLabModel
from repro.core.monitor import GuardFacts, Sweep
from repro.core.state import LabState
from repro.devices.robot import RobotArmDevice
from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.shapes import Cuboid
from repro.kinematics.arm import TrajectoryPlan, UnreachableTargetError
from repro.obs import OBS

_OBS_ENGINE_CACHE = OBS.registry.counter(
    "es_engine_cache_total",
    "Per-(frame, exclusions) packed-engine cache outcomes.",
    labels=("result",),
)


@dataclass(frozen=True)
class SweepJob:
    """A fully prepared trajectory sweep, separated from its evaluation.

    :meth:`ExtendedSimulator.prepare_sweep` derives one of these from a
    command (plan the motion, resolve exclusions, sample the tool line);
    its probes (:func:`stack_probes`) can then be evaluated inline (the
    classic path) or concatenated with other sessions' jobs and run
    through one stacked :class:`BatchCollisionEngine` pass (the serve
    batcher).  The hit arrays go back through :func:`finish_sweep`,
    which owns the walls/bounds checks and the reference message
    derivation — so every evaluation route produces byte-identical
    verdict strings.
    """

    call: ActionCall
    model: RabitLabModel
    frame: str
    exclude: Tuple[str, ...]
    robot_model: Any
    held: Optional[str]
    samples: np.ndarray


def stack_probes(samples: np.ndarray, robot_model: Any, held: Optional[str]) -> np.ndarray:
    """The sweep's probes as one array: tool points, gripper tips, then
    vial tips when RABIT believes the arm holds something.

    All three go through one ``first_containing`` pass on the
    obstacles+surfaces engine; :func:`split_probe_hits` takes the result
    apart again.  The offsets are the scalar reference loop's."""
    tips = samples - np.array([0.0, 0.0, robot_model.gripper_clearance])
    if held is None:
        return np.concatenate((samples, tips))
    vial_tips = samples - np.array([0.0, 0.0, robot_model.held_drop])
    return np.concatenate((samples, tips, vial_tips))


def split_probe_hits(
    hits: np.ndarray, count: int, obstacle_count: int, held: Optional[str]
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Per-family hits of a stacked :func:`stack_probes` pass.

    *hits* is ``first_containing`` of the stacked array on the
    obstacles+surfaces engine, whose first *obstacle_count* rows are the
    obstacles-only engine's, in its order.  A tool point hits an obstacle
    exactly when its lowest containing row is one of those, so its hits
    are what the obstacles-only engine returns: the arm, gripper-tip and
    held-vial arrays :func:`finish_sweep` takes."""
    tool = hits[:count]
    arm_hit = np.where(tool < obstacle_count, tool, -1)
    held_hit = hits[2 * count :] if held is not None else None
    return arm_hit, hits[count : 2 * count], held_hit


def finish_sweep(
    call: ActionCall,
    samples: np.ndarray,
    walls: Sequence[Any],
    bounds: Optional[Any],
    held: Optional[str],
    arm_hit: np.ndarray,
    tip_hit: np.ndarray,
    held_hit: Optional[np.ndarray],
    obst_names: Sequence[str],
    full_names: Sequence[str],
) -> Optional[str]:
    """Walls/bounds checks + first-bad-sample message for a swept job.

    *arm_hit*/*tip_hit*/*held_hit* are ``first_containing`` results for
    the three probe families; *held_hit* is ``None`` when RABIT does not
    believe the arm holds anything.  Messages and probe precedence (arm,
    gripper tip, held vial, walls, bounds) are verbatim the scalar
    reference loop's.
    """
    bad = (arm_hit >= 0) | (tip_hit >= 0)
    if held_hit is not None:
        bad = bad | (held_hit >= 0)
    wall_bad = np.zeros((len(samples), len(walls)), dtype=bool)
    for j, wall in enumerate(walls):
        n = np.asarray(wall.normal, dtype=np.float64)
        # One 3-vector dot product per sample, like SoftwareWall.allows's
        # np.dot: ``samples @ n`` may round differently in the last bit
        # on an oblique wall.  Negated ``<=`` blocks NaN as allows does.
        dots = np.matmul(samples[:, None, :], n[:, None])[:, 0, 0]
        wall_bad[:, j] = ~(dots <= wall.offset + 1e-9)
    if walls:
        bad = bad | wall_bad.any(axis=1)
    if bounds is not None:
        bounds_bad = ~np.all(
            (samples >= np.asarray(bounds.lo)) & (samples <= np.asarray(bounds.hi)),
            axis=1,
        )
        bad = bad | bounds_bad

    if not bad.any():
        return None

    # First failing sample, probes in the reference order: arm,
    # gripper tip, held vial, walls, bounds — identical messages to
    # the scalar loop.
    i = int(np.argmax(bad))
    if arm_hit[i] >= 0:
        return (
            f"simulated trajectory of {call.robot!r}: arm would "
            f"collide with {obst_names[arm_hit[i]]!r}"
        )
    if tip_hit[i] >= 0:
        return (
            f"simulated trajectory of {call.robot!r}: gripper would "
            f"collide with {full_names[tip_hit[i]]!r}"
        )
    if held_hit is not None and held_hit[i] >= 0:
        return (
            f"simulated trajectory of {call.robot!r}: held vial "
            f"{held!r} would collide with {full_names[held_hit[i]]!r}"
        )
    if walls and wall_bad[i].any():
        wall = walls[int(np.argmax(wall_bad[i]))]
        return (
            f"simulated trajectory of {call.robot!r} crosses "
            f"software wall {wall.name!r}"
        )
    return (
        f"simulated trajectory of {call.robot!r} leaves the "
        f"configured workspace"
    )


def build_sweep_engines(
    model: RabitLabModel, frame: str, exclude: Sequence[str]
) -> Tuple[BatchCollisionEngine, BatchCollisionEngine]:
    """The sweep's two packed engines: obstacles-only, obstacles+surfaces.

    Shared between the simulator's per-(frame, exclusions) cache and the
    serve batcher's per-geometry-group cache, so both evaluate probes
    against identically constructed cuboid sets."""
    obstacles = model.obstacles_for_frame(frame, exclude=exclude)
    surfaces = model.surfaces_for_frame(frame, exclude=exclude)
    return (
        BatchCollisionEngine(obstacles),
        BatchCollisionEngine(list(obstacles) + list(surfaces)),
    )


class ExtendedSimulator:
    """URSim extended with deck-level cuboid collision checking."""

    #: Trajectory polling resolution (samples per motion).
    RESOLUTION = 30

    def __init__(self, robots: Dict[str, RobotArmDevice]) -> None:
        #: The real arm devices the simulator polls for current postures.
        self._robots = dict(robots)
        #: Packed engines per (frame, excluded devices), rebuilt whenever
        #: the model's geometry revision moves.
        self._engine_cache: Dict[
            Tuple[str, Tuple[str, ...]],
            Tuple[BatchCollisionEngine, BatchCollisionEngine, int, int],
        ] = {}
        self._engine_revision: Optional[int] = None

    # ------------------------------------------------------------------
    # TrajectoryChecker protocol
    # ------------------------------------------------------------------

    def validate_trajectory(
        self,
        call: ActionCall,
        state: LabState,
        model: RabitLabModel,
        account_held_objects: bool,
        facts: Optional[GuardFacts] = None,
    ) -> Optional[str]:
        """Reason the commanded motion would collide, or ``None``.

        When *facts* is given, the sweep that ran is written to
        ``facts.sweep`` (left ``None`` when nothing was swept)."""
        job = self.prepare_sweep(call, state, model, account_held_objects)
        if job is None:
            # Nothing to sweep: the command targets no known arm, or the
            # controller cannot plan this motion at all (the arm will
            # skip or raise on its own).
            return None
        samples = len(job.samples)
        with OBS.span(
            "es.validate_trajectory", robot=call.robot, label=call.label.value,
            path="batch", samples=samples,
        ) as span:
            problem = self._sweep_batch(
                call, model, job.frame, list(job.exclude), job.robot_model,
                job.held, job.samples,
            )
            if span is not None:
                span.set(verdict=problem or "clear")
        if facts is not None:
            facts.sweep = Sweep("batch", samples, problem)
        return problem

    def prepare_sweep(
        self,
        call: ActionCall,
        state: LabState,
        model: RabitLabModel,
        account_held_objects: bool,
    ) -> Optional[SweepJob]:
        """Plan the motion and package everything a sweep needs.

        Returns ``None`` when there is nothing to sweep (unknown arm, or
        the controller cannot plan the motion) — the caller must then
        pass the command through without recording a sweep, exactly the
        behaviour of the inline path."""
        if call.robot is None or call.robot not in self._robots:
            return None
        robot = self._robots[call.robot]
        robot_model = model.device(call.robot)
        frame = robot_model.frame or call.robot

        plan = self._plan_for(robot, call)
        if plan is None:
            return None

        exclude = model.collision_exclusions(call, state)
        held = (
            state.get("robot_holding", call.robot)
            if account_held_objects
            else None
        )

        # The controller executes deck moves as straight tool-line motions
        # (moveL semantics); sweep the straight end-effector segment from
        # the arm's polled current position to the target — the same path
        # the ground-truth physics sweeps.  The sampler emits one packed
        # (RESOLUTION + 1, 3) array; element i is exactly
        # ``start + (end - start) * (i / RESOLUTION)``, bit-identical to
        # the scalar loop's arithmetic.
        ee_start = robot.kinematics.current_position()
        ee_end = np.array(plan.end_position, dtype=np.float64)
        steps = np.arange(self.RESOLUTION + 1, dtype=np.float64) / self.RESOLUTION
        samples = ee_start[None, :] + (ee_end - ee_start)[None, :] * steps[:, None]

        return SweepJob(
            call=call,
            model=model,
            frame=frame,
            exclude=tuple(exclude),
            robot_model=robot_model,
            held=held,
            samples=samples,
        )

    # ------------------------------------------------------------------
    # Batched sweep (the one every guarded command runs)
    # ------------------------------------------------------------------

    def _sweep_batch(
        self,
        call: ActionCall,
        model: RabitLabModel,
        frame: str,
        exclude: List[str],
        robot_model,
        held: Optional[str],
        samples: np.ndarray,
    ) -> Optional[str]:
        obst_engine, full_engine = self._engines_for(model, frame, exclude)

        # One containment matrix for every probe family and sample.
        hits = full_engine.first_containing(stack_probes(samples, robot_model, held))
        arm_hit, tip_hit, held_hit = split_probe_hits(
            hits, len(samples), len(obst_engine), held
        )
        return finish_sweep(
            call,
            samples,
            model.walls.get(frame, []),
            model.workspace_bounds.get(frame),
            held,
            arm_hit,
            tip_hit,
            held_hit,
            obst_engine.names,
            full_engine.names,
        )

    def _engines_for(
        self, model: RabitLabModel, frame: str, exclude: Sequence[str]
    ) -> Tuple[BatchCollisionEngine, BatchCollisionEngine]:
        """Packed engines for (frame, exclude): obstacles-only and
        obstacles+surfaces, cached until the model geometry changes."""
        revision = model.geometry_revision
        if revision != self._engine_revision:
            self._engine_cache.clear()
            self._engine_revision = revision
        key = (frame, tuple(sorted(exclude)))
        cached = self._engine_cache.get(key)
        if cached is not None:
            if OBS.enabled:
                _OBS_ENGINE_CACHE.inc(1, result="hit")
            return cached[0], cached[1]
        if OBS.enabled:
            _OBS_ENGINE_CACHE.inc(1, result="miss")
        obst_engine, full_engine = build_sweep_engines(model, frame, exclude)
        self._engine_cache[key] = (
            obst_engine,
            full_engine,
            revision,
            len(obst_engine),
        )
        return obst_engine, full_engine

    # ------------------------------------------------------------------
    # Scalar sweep (the reference implementation)
    # ------------------------------------------------------------------

    def _sweep_scalar(
        self,
        call: ActionCall,
        model: RabitLabModel,
        frame: str,
        exclude: List[str],
        robot_model,
        held: Optional[str],
        samples: np.ndarray,
    ) -> Optional[str]:
        obstacles = model.obstacles_for_frame(frame, exclude=exclude)
        surfaces = model.surfaces_for_frame(frame, exclude=exclude)
        walls = model.walls.get(frame, [])
        bounds = model.workspace_bounds.get(frame)

        for ee in samples:
            # Probe the polled tool point and gripper tip (position-only
            # control leaves the wrist orientation free, so the arm is
            # reduced to its tool for collision purposes — the same
            # modeling choice as the ground-truth physics, keeping
            # simulator and reality consistent).
            box = self._point_hit(ee, obstacles, ())
            if box is not None:
                return (
                    f"simulated trajectory of {call.robot!r}: arm would "
                    f"collide with {box!r}"
                )

            tip = ee - np.array([0.0, 0.0, robot_model.gripper_clearance])
            box = self._point_hit(tip, obstacles, surfaces)
            if box is not None:
                return (
                    f"simulated trajectory of {call.robot!r}: gripper would "
                    f"collide with {box!r}"
                )

            if held is not None:
                vial_tip = ee - np.array([0.0, 0.0, robot_model.held_drop])
                box = self._point_hit(vial_tip, obstacles, surfaces)
                if box is not None:
                    return (
                        f"simulated trajectory of {call.robot!r}: held vial "
                        f"{held!r} would collide with {box!r}"
                    )

            for wall in walls:
                if not wall.allows(ee):
                    return (
                        f"simulated trajectory of {call.robot!r} crosses "
                        f"software wall {wall.name!r}"
                    )
            if bounds is not None and not bounds.contains(ee):
                return (
                    f"simulated trajectory of {call.robot!r} leaves the "
                    f"configured workspace"
                )
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan_for(
        self, robot: RobotArmDevice, call: ActionCall
    ) -> Optional[TrajectoryPlan]:
        """Plan the commanded motion from the arm's *polled* posture."""
        kin = robot.kinematics
        if call.label is ActionLabel.GO_HOME:
            return kin.plan_posture(robot.profile.home_q)
        if call.label is ActionLabel.GO_SLEEP:
            return kin.plan_posture(robot.profile.sleep_q)
        if call.target is None:
            return None
        try:
            plan = kin.plan_move(call.target)
        except UnreachableTargetError:
            return None
        if plan.skipped:
            return None
        return plan

    @staticmethod
    def _point_hit(
        point: np.ndarray,
        obstacles: Sequence[Cuboid],
        surfaces: Sequence[Cuboid],
    ) -> Optional[str]:
        for box in list(obstacles) + list(surfaces):
            if box.contains(point):
                return box.name
        return None
