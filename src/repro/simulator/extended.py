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
  Python loop, verbatim the paper's description.
- :meth:`ExtendedSimulator._sweep_batch` (the default) packs the deck's
  cuboids into a cached :class:`~repro.geometry.batch.BatchCollisionEngine`
  per ``(frame, excluded devices)`` and evaluates every polled sample
  against every cuboid in one broadcasted pass.  Engines are invalidated
  by the model's ``geometry_revision``, so time multiplexing swapping a
  sleeping arm's cuboid in or out rebuilds them.

The two produce identical verdicts and identical messages; the
differential test suite pins that equivalence.

``sweep_links=True`` additionally sweeps the **whole arm body**: the
planned joint-space trajectory is run through the batched FK kernel
(:meth:`~repro.kinematics.trajectory.JointTrajectory.link_paths_array`),
and every link segment of every polled posture is slab-tested against the
obstacle cuboids (inflated by the arm's link radius) in one
``(S x dof) x N`` pass — full-arm coverage at batched cost, catching
elbow/forearm strikes the tool-point sweep cannot see.  It is **off by
default** because it extends the paper's tool-point mechanism: enabling
it can only add verdicts, never change existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.actions import ActionCall, ActionLabel
from repro.core.model import RabitLabModel
from repro.core.state import LabState
from repro.devices.robot import RobotArmDevice
from repro.geometry.batch import BatchCollisionEngine
from repro.geometry.shapes import Cuboid
from repro.kinematics.arm import TrajectoryPlan, UnreachableTargetError
from repro.obs import OBS
from repro.trace.recorder import TRACE

_OBS_CHECKS = OBS.registry.counter(
    "es_trajectory_checks_total",
    "Extended Simulator trajectory validations, by sweep path.",
    labels=("path",),
)
_OBS_VERDICTS = OBS.registry.counter(
    "es_trajectory_verdicts_total",
    "Extended Simulator sweep verdicts.",
    labels=("verdict",),
)
_OBS_SEGMENTS = OBS.registry.counter(
    "es_segments_swept_total",
    "Trajectory samples swept against the deck geometry.",
)
_OBS_SWEEP_SAMPLES = OBS.registry.histogram(
    "es_sweep_samples",
    "Samples per trajectory sweep.",
    buckets=(8, 16, 31, 64, 128, 256),
)
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
    the probe arrays it yields can then be evaluated inline (the classic
    path) or concatenated with other sessions' jobs and run through one
    stacked :class:`BatchCollisionEngine` pass (the serve batcher).  The
    hit arrays go back through :func:`finish_sweep`, which owns the
    walls/bounds checks and the reference message derivation — so every
    evaluation route produces byte-identical verdict strings.
    """

    call: ActionCall
    model: RabitLabModel
    frame: str
    exclude: Tuple[str, ...]
    robot_model: Any
    held: Optional[str]
    samples: np.ndarray
    plan: TrajectoryPlan
    robot: RobotArmDevice

    def probe_points(
        self,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """The three probe families: tool points, gripper tips, vial tips.

        The offsets match the inline sweep exactly; the vial array is
        ``None`` when RABIT does not believe the arm holds anything."""
        tips = self.samples - np.array(
            [0.0, 0.0, self.robot_model.gripper_clearance]
        )
        vial_tips = None
        if self.held is not None:
            vial_tips = self.samples - np.array(
                [0.0, 0.0, self.robot_model.held_drop]
            )
        return self.samples, tips, vial_tips


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
        wall_bad[:, j] = samples @ n > wall.offset + 1e-9
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

    def __init__(
        self,
        robots: Dict[str, RobotArmDevice],
        use_batch: bool = True,
        sweep_links: bool = False,
    ) -> None:
        #: The real arm devices the simulator polls for current postures.
        self._robots = dict(robots)
        #: Whether to sweep with the vectorized engine (the fast path) or
        #: the scalar per-sample reference loop.
        self.use_batch = use_batch
        #: Whether to additionally sweep every arm-link segment of the
        #: planned joint-space motion (batched FK; strictly additive).
        self.sweep_links = sweep_links
        #: Packed engines per (frame, excluded devices), rebuilt whenever
        #: the model's geometry revision moves.
        self._engine_cache: Dict[
            Tuple[str, Tuple[str, ...]],
            Tuple[BatchCollisionEngine, BatchCollisionEngine, int, int],
        ] = {}
        #: Link-radius-inflated obstacle engines for the full-arm sweep,
        #: keyed by (frame, excluded devices, margin).
        self._link_engine_cache: Dict[
            Tuple[str, Tuple[str, ...], float], BatchCollisionEngine
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
    ) -> Optional[str]:
        """Reason the commanded motion would collide, or ``None``."""
        job = self.prepare_sweep(call, state, model, account_held_objects)
        if job is None:
            # Nothing to sweep: the command targets no known arm, or the
            # controller cannot plan this motion at all (the arm will
            # skip or raise on its own).
            return None
        frame, exclude = job.frame, list(job.exclude)
        robot_model, held, samples = job.robot_model, job.held, job.samples
        robot, plan = job.robot, job.plan

        sweep = self._sweep_batch if self.use_batch else self._sweep_scalar
        if not OBS.enabled:
            problem = sweep(call, model, frame, exclude, robot_model, held, samples)
            if problem is None and self.sweep_links:
                problem = self._sweep_arm_links(call, model, frame, exclude, robot, plan)
            if TRACE.active:
                TRACE.stage_trajectory(
                    path="batch" if self.use_batch else "scalar",
                    samples=len(samples),
                    verdict=problem,
                )
            return problem

        path = "batch" if self.use_batch else "scalar"
        _OBS_CHECKS.inc(1, path=path)
        _OBS_SEGMENTS.inc(float(len(samples)))
        _OBS_SWEEP_SAMPLES.observe(float(len(samples)))
        with OBS.span(
            "es.validate_trajectory", robot=call.robot, label=call.label.value,
            path=path, samples=len(samples),
        ) as span:
            problem = sweep(call, model, frame, exclude, robot_model, held, samples)
            if problem is None and self.sweep_links:
                problem = self._sweep_arm_links(call, model, frame, exclude, robot, plan)
            _OBS_VERDICTS.inc(1, verdict="collision" if problem else "clear")
            if span is not None:
                span.set(verdict=problem or "clear")
        if TRACE.active:
            TRACE.stage_trajectory(path=path, samples=len(samples), verdict=problem)
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
        pass the command through without staging a trajectory verdict,
        exactly the behaviour of the inline path."""
        if call.robot is None or call.robot not in self._robots:
            return None
        robot = self._robots[call.robot]
        robot_model = model.device(call.robot)
        frame = robot_model.frame or call.robot

        plan = self._plan_for(robot, call)
        if plan is None:
            return None

        exclude: List[str] = []
        owner = model.interior_owner(call.location)
        if owner is not None and state.get("door_status", owner, "open") == "open":
            exclude.append(owner)
        currently_inside = state.get("robot_inside", call.robot)
        if currently_inside is not None:
            exclude.append(currently_inside)
        if call.location is not None:
            loc = model.location(call.location)
            if loc.kind == "grid_slot" and loc.device:
                exclude.append(loc.device)

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
        ee_start = np.asarray(robot.kinematics.current_position(), dtype=np.float64)
        ee_end = np.asarray(
            plan.trajectory.chain.end_effector_position(plan.trajectory.q_end),
            dtype=np.float64,
        )
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
            plan=plan,
            robot=robot,
        )

    # ------------------------------------------------------------------
    # Batched sweep (the fast path)
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

        # One containment matrix per probe family, all samples at once.
        arm_hit = obst_engine.first_containing(samples)
        tips = samples - np.array([0.0, 0.0, robot_model.gripper_clearance])
        tip_hit = full_engine.first_containing(tips)
        held_hit = None
        if held is not None:
            vial_tips = samples - np.array([0.0, 0.0, robot_model.held_drop])
            held_hit = full_engine.first_containing(vial_tips)

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

    def _sweep_arm_links(
        self,
        call: ActionCall,
        model: RabitLabModel,
        frame: str,
        exclude: List[str],
        robot: RobotArmDevice,
        plan: TrajectoryPlan,
    ) -> Optional[str]:
        """Full-arm link sweep over the planned joint-space motion.

        Every polled posture's joint-origin polyline (one batched FK pass,
        no per-sample loop) is swept segment-by-segment against the
        link-radius-inflated obstacle engine.  Strictly additive: runs
        only after the tool-point probes came back clear.
        """
        paths = plan.trajectory.link_paths_array(self.RESOLUTION)
        engine = self._link_engine_for(model, frame, exclude, robot.profile.link_radius)
        if len(engine) == 0:
            return None
        hits = engine.polylines_hit_indices(paths)
        bad = hits >= 0
        if not bad.any():
            return None
        first = int(np.argmax(bad))
        return (
            f"simulated trajectory of {call.robot!r}: arm link would "
            f"collide with {engine.names[hits[first]]!r}"
        )

    def _link_engine_for(
        self, model: RabitLabModel, frame: str, exclude: Sequence[str], margin: float
    ) -> BatchCollisionEngine:
        """Link-radius-inflated obstacle engine, cached like `_engines_for`."""
        revision = model.geometry_revision
        if revision != self._engine_revision:
            self._engine_cache.clear()
            self._link_engine_cache.clear()
            self._engine_revision = revision
        key = (frame, tuple(sorted(exclude)), float(margin))
        engine = self._link_engine_cache.get(key)
        if engine is None:
            obstacles = model.obstacles_for_frame(frame, exclude=exclude)
            engine = BatchCollisionEngine(obstacles, margin=float(margin))
            self._link_engine_cache[key] = engine
        return engine

    def _engines_for(
        self, model: RabitLabModel, frame: str, exclude: Sequence[str]
    ) -> Tuple[BatchCollisionEngine, BatchCollisionEngine]:
        """Packed engines for (frame, exclude): obstacles-only and
        obstacles+surfaces, cached until the model geometry changes."""
        revision = model.geometry_revision
        if revision != self._engine_revision:
            self._engine_cache.clear()
            self._link_engine_cache.clear()
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
