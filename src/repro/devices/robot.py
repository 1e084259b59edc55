"""The robot arm device — command API, gripper, and ground-truth physics.

The command surface mirrors the wrappers in the paper's experiment scripts
(Fig. 1(b) and Fig. 5): ``move_to_location``, ``go_to_home_pose``,
``go_to_sleep_pose``, ``open_gripper``/``close_gripper``, plus the
``pick_up_vial``/``place_vial`` conveniences the lab helpers build on.

Ground-truth physics implemented here (all invisible to RABIT, which only
sees commands and status replies):

- **Swept collisions.**  Every executed move sweeps the straight tool
  path (moveL semantics) in the world frame, probing the tool point and
  gripper tip against device footprints, other arms, support surfaces,
  and the workspace walls/floor.  A bare-arm contact *stalls* the arm
  mid-trajectory (protective stop) and records damage.
- **Held-object extent.**  A gripped vial hangs ``HELD_DROP`` below the
  end-effector reference point — farther than the bare gripper's
  ``GRIPPER_CLEARANCE``.  A move that is safe for the bare arm can smash a
  held vial (the paper's Bug D: z 0.10 → 0.08); the vial slips out and
  shatters while the arm itself continues unharmed.  This asymmetry is why
  the paper had to modify RABIT "to account that a robot arm's dimensions
  may change if it is holding an object".
- **Silent skips.**  A ViperX-profile arm given an unreachable target
  records the command but does not move (see
  :class:`~repro.kinematics.profiles.UnreachableBehavior`).
- **No gripper pressure sensor.**  :meth:`status` reports the gripper's
  open/closed state and the (noisy) end-effector position, but *not*
  whether anything is actually held — the paper's stated reason Bug C is
  undetectable.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.devices.base import Device, DeviceKind
from repro.devices.locations import Location, LocationKind
from repro.devices.world import DamageEvent, DamageSeverity, LabWorld
from repro.geometry.shapes import Cuboid
from repro.geometry.vec import Vec3, as_vec3, distance
from repro.kinematics.arm import ArmKinematics, TrajectoryPlan
from repro.kinematics.profiles import ArmProfile


class GripperState(Enum):
    """Open/closed state of the parallel gripper (observable)."""

    OPEN = "open"
    CLOSED = "closed"


LocationRef = Union[str, Sequence[float]]


class RobotArmDevice(Device):
    """A six-axis robot arm mounted on the deck.

    The arm plans and reports in **its own coordinate frame** (the lab's
    de facto convention); the :class:`~repro.devices.world.LabWorld` holds
    the exact frame-to-world transform used for ground-truth physics.
    """

    kind = DeviceKind.ROBOT_ARM

    #: Lowest point of the bare gripper below the end-effector reference (m).
    GRIPPER_CLEARANCE = 0.025
    #: Lowest point of a held vial below the end-effector reference (m).
    HELD_DROP = 0.06
    #: Maximum distance between gripper and vial for a grasp to succeed (m).
    GRASP_TOLERANCE = 0.03
    #: Drop height above a surface beyond which a released vial shatters (m).
    SAFE_DROP = 0.03
    #: Trajectory sampling resolution for ground-truth sweeps.
    SWEEP_RESOLUTION = 30

    def __init__(
        self,
        name: str,
        profile: ArmProfile,
        world: LabWorld,
        noise_sigma: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(name)
        self.profile = profile
        self.world = world
        #: Kinematics in the arm's own frame (base at the frame origin).
        self.kinematics = ArmKinematics(profile)
        self._gripper = GripperState.OPEN
        self._holding: Optional[str] = None  # ground truth, NOT observable
        self._noise_sigma = float(noise_sigma)
        self._rng = np.random.default_rng(seed)
        self._stalled = False

    # ------------------------------------------------------------------
    # Introspection used by the world / scenarios (not part of the lab API)
    # ------------------------------------------------------------------

    @property
    def holding(self) -> Optional[str]:
        """Ground-truth name of the held vial (no sensor reports this)."""
        return self._holding

    @property
    def gripper(self) -> GripperState:
        """Observable gripper jaw state."""
        return self._gripper

    @property
    def stalled(self) -> bool:
        """Whether the last move ended in a protective stop."""
        return self._stalled

    def ee_position_own_frame(self) -> Vec3:
        """Exact end-effector position in the arm's own frame."""
        return self.kinematics.current_position()

    def current_footprint_world(self) -> Cuboid:
        """World-frame cuboid bounding the arm at its current posture."""
        polyline_own = self.kinematics.arm_polyline()
        to_world = self.world.frames.to_world(self.name)
        pts = [to_world.apply(p) for p in polyline_own]
        lo = np.min(pts, axis=0) - self.profile.link_radius
        hi = np.max(pts, axis=0) + self.profile.link_radius
        return Cuboid(tuple(lo), tuple(hi), name=self.name)

    # ------------------------------------------------------------------
    # Lab API: movement
    # ------------------------------------------------------------------

    def resolve_location(self, ref: LocationRef) -> Tuple[Vec3, Optional[Location]]:
        """Resolve a location name or raw coordinate triple to own-frame
        coordinates, plus the :class:`Location` when a name was given."""
        if isinstance(ref, str):
            loc = self.world.locations.get(ref)
            return as_vec3(loc.coord_for(self.name)), loc
        return as_vec3(ref), None

    def move_to_location(self, ref: LocationRef) -> None:
        """Move the end effector to a named location or raw coordinates."""
        target, location = self.resolve_location(ref)
        self._record()
        self._execute_move(target, location)

    def move_pose(self, ref: LocationRef) -> None:
        """Alias used by the Ned2 wrapper in Fig. 5 (``ned2.move_pose``)."""
        target, location = self.resolve_location(ref)
        self._record()
        self._execute_move(target, location)

    def go_to_home_pose(self) -> None:
        """Move to the vendor home posture."""
        self._record()
        self._execute_posture_move(self.profile.home_q)

    def go_to_sleep_pose(self) -> None:
        """Move to the vendor sleep posture (arm folded over its base)."""
        self._record()
        self._execute_posture_move(self.profile.sleep_q)

    # ------------------------------------------------------------------
    # Lab API: gripper
    # ------------------------------------------------------------------

    def open_gripper(self) -> None:
        """Open the jaws; releases a held vial at the current position."""
        self._record()
        if self._gripper is GripperState.OPEN:
            return
        self._gripper = GripperState.OPEN
        if self._holding is not None:
            self._release_held_vial()

    def close_gripper(self) -> None:
        """Close the jaws; grasps a vial if one is within reach."""
        self._record()
        if self._gripper is GripperState.CLOSED:
            return
        self._gripper = GripperState.CLOSED
        self._try_grasp()

    def pick_up_vial(self, ref: LocationRef) -> None:
        """Pick a vial up from a location: descend, close, ascend.

        Mirrors ``robot.pick_up_vial()`` in Fig. 1(b).  The descend height
        comes from the location itself; the caller is expected to already
        be at a safe approach point.
        """
        self._record()
        target, location = self.resolve_location(ref)
        self._execute_move(target, location)
        self.open_gripper()
        self.close_gripper()

    def place_vial(self, ref: LocationRef) -> None:
        """Place the held vial at a location: descend, open, stay."""
        self._record()
        target, location = self.resolve_location(ref)
        self._execute_move(target, location)
        self.open_gripper()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Firmware-reported state: noisy position + gripper jaw state.

        Deliberately missing: what (if anything) the gripper holds — the
        testbed arms have no pressure sensor (§IV, category 3) — and
        whether the arm bumped something mid-move (no protective-stop
        telemetry on these educational arms, which is why an arm-arm
        collision leaves no observable trace for RABIT)."""
        pos = self.ee_position_own_frame()
        if self._noise_sigma > 0:
            pos = pos + self._rng.normal(0.0, self._noise_sigma, size=3)
        return {
            "position": (float(pos[0]), float(pos[1]), float(pos[2])),
            "gripper": self._gripper.value,
        }

    # ------------------------------------------------------------------
    # Ground-truth physics
    # ------------------------------------------------------------------

    def _execute_posture_move(self, q_end: Sequence[float]) -> None:
        plan = self.kinematics.plan_posture(q_end)
        self._run_plan(plan, location=None)

    def _execute_move(self, target_own: Vec3, location: Optional[Location]) -> None:
        noisy_target = target_own
        if self._noise_sigma > 0:
            noisy_target = target_own + self._rng.normal(0.0, self._noise_sigma, size=3)
        plan = self.kinematics.plan_move(noisy_target)
        if plan.skipped:
            # ViperX silent-skip semantics: nothing moves, nothing raises.
            return
        self._run_plan(plan, location)

    def _run_plan(self, plan: TrajectoryPlan, location: Optional[Location]) -> None:
        """Execute a planned trajectory with full ground-truth physics."""
        self._stalled = False
        entering = (
            location is not None and location.kind is LocationKind.DEVICE_INTERIOR
        )
        target_device = location.device if (entering and location) else None
        currently_inside = self.world.robot_inside(self.name)

        # Crossing a closed door — in either direction — crashes the arm
        # through the (glass) door.  Entering is the §I footnote incident
        # and Bug A; exiting happens when the door was closed on top of an
        # arm still inside the device.  Multi-door devices resolve the
        # *specific* door being crossed (entry: the target location's
        # via_door; exit: the door the arm came in through).
        for crossed in {target_device, currently_inside} - {None}:
            if crossed == target_device and crossed == currently_inside:
                continue  # staying inside the same device: no door crossing
            if crossed == target_device:
                via = location.via_door if location is not None else None
            else:
                via = self.world.robot_entry_door(self.name)
            door = self._door_guarding(crossed, via)
            if door is not None and not door.is_open:
                self.world.record_damage(
                    DamageEvent(
                        severity=DamageSeverity.HIGH,
                        kind="door_crash",
                        description=(
                            f"{self.name} drove through the closed door of "
                            f"{crossed!r}"
                        ),
                        involved=(self.name, crossed),
                    )
                )
                if self._holding is not None:
                    self._shatter_held("smashed against the closed door")
                self._stalled = True
                return  # protective stop at the door

        to_world = self.world.frames.to_world(self.name)
        samples = plan.trajectory.sample(self.SWEEP_RESOLUTION)

        # The controller executes deck moves as straight tool-line motions
        # (moveL semantics), so the collision sweep samples the straight
        # end-effector segment from the current position to the target —
        # the same path the Extended Simulator sweeps, keeping simulator
        # and reality consistent.  Joint angles are interpolated alongside
        # only to freeze a plausible stall posture on contact.
        ee_start_own = self.kinematics.current_position()
        ee_end_own = np.array(plan.end_position, dtype=np.float64)
        count = len(samples)
        ee_path_world = [
            to_world.apply(ee_start_own + (ee_end_own - ee_start_own) * (i / (count - 1)))
            for i in range(count)
        ]
        obstacles = self._collision_obstacles(
            exclude_device=target_device, also_exclude=currently_inside
        )
        surfaces = self.world.surfaces()

        for index, (q, ee_world) in enumerate(zip(samples, ee_path_world)):

            # Held vial contacts first: it hangs lowest.
            if self._holding is not None:
                vial_tip = ee_world - np.array([0.0, 0.0, self.HELD_DROP])
                hit_box = self._point_contact(vial_tip, obstacles) or self._point_contact(
                    vial_tip, surfaces
                )
                if hit_box is not None:
                    self._shatter_held(f"crushed against {hit_box!r} mid-move")
                    # The arm itself continues: losing the vial does not
                    # trip any sensor on these arms.

            # Bare-arm contact: the tool point and the gripper tip are the
            # collision surface (position-only control leaves the wrist

            # orientation free, so the arm is reduced to its tool for
            # collision purposes; the Extended Simulator makes the same
            # modeling choice, keeping simulator and reality consistent).
            # The tip is additionally checked against support surfaces;
            # proximal links are exempt — arms are mounted on the surfaces.
            gripper_tip = ee_world - np.array([0.0, 0.0, self.GRIPPER_CLEARANCE])
            hit_box = (
                self._point_contact(ee_world, obstacles)
                or self._point_contact(gripper_tip, obstacles)
                or self._point_contact(gripper_tip, surfaces)
            )
            wall_reason = self.world.workspace.violation(ee_world)

            if hit_box is not None or wall_reason:
                obstacle = hit_box
                severity = self._obstacle_severity(obstacle)
                desc = (
                    f"{self.name} collided with {obstacle!r}"
                    if obstacle
                    else f"{self.name}: {wall_reason}"
                )
                self.world.record_damage(
                    DamageEvent(
                        severity=severity,
                        kind="arm_collision",
                        description=desc + " (protective stop)",
                        involved=tuple(x for x in (self.name, obstacle) if x),
                    )
                )
                # Protective stop: freeze mid-trajectory.
                self.kinematics.set_posture(q)
                self._stalled = True
                self._update_containment(location, reached=False)
                return

        # Clean execution: commit the final posture.
        self.kinematics.execute(plan)
        self._update_containment(location, reached=True)

    def _collision_obstacles(
        self, exclude_device: Optional[str], also_exclude: Optional[str] = None
    ) -> List[Cuboid]:
        """World-frame cuboids this arm can collide with right now."""
        exclude = [self.name]
        if exclude_device is not None:
            exclude.append(exclude_device)
        if also_exclude is not None:
            exclude.append(also_exclude)
        boxes = list(self.world.footprints(exclude=exclude))
        # Other arms, at their *current* postures.
        for device in self.world.devices():
            if device is self or not isinstance(device, RobotArmDevice):
                continue
            boxes.append(device.current_footprint_world())
        return boxes

    @staticmethod
    def _point_contact(point: Vec3, obstacles: Sequence[Cuboid]) -> Optional[str]:
        for box in obstacles:
            if box.contains(point):
                return box.name
        return None

    def _obstacle_severity(self, obstacle: Optional[str]) -> DamageSeverity:
        """Severity of hitting *obstacle*, per Table V's bands."""
        if obstacle is None:
            return DamageSeverity.MEDIUM_HIGH  # walls / ground / platform
        device = None
        try:
            device = self.world.device(obstacle)
        except KeyError:
            pass
        if device is None:
            return DamageSeverity.MEDIUM_HIGH  # grids, platform, mockups
        if isinstance(device, RobotArmDevice):
            return DamageSeverity.MEDIUM_HIGH  # arm-vs-arm (testbed arms)
        return DamageSeverity.HIGH  # expensive automation equipment

    def _door_guarding(self, device_name: str, via_door: Optional[str]):
        """The door object guarding access to *device_name* via *via_door*
        (``None`` for doorless devices)."""
        device = self.world.device(device_name)
        doors = getattr(device, "doors", None)
        if doors is not None:
            return device.door_for(via_door)
        return getattr(device, "door", None)

    def _update_containment(self, location: Optional[Location], reached: bool) -> None:
        if not reached:
            return
        if location is not None and location.kind is LocationKind.DEVICE_INTERIOR:
            if location.device is not None:
                self.world.robot_entered(
                    self.name, location.device, via_door=location.via_door
                )
        else:
            self.world.robot_left(self.name)

    # ------------------------------------------------------------------
    # Grasp / release ground truth
    # ------------------------------------------------------------------

    def _try_grasp(self) -> None:
        if self._holding is not None:
            return
        ee_own = self.ee_position_own_frame()
        for loc in self.world.locations:
            occupant = self.world.occupant(loc.name)
            if occupant is None:
                continue
            try:
                coords = as_vec3(loc.coord_for(self.name))
            except KeyError:
                continue  # location not expressed in this arm's frame
            if distance(ee_own, coords) <= self.GRASP_TOLERANCE:
                self.world.remove_vial(occupant)
                self._holding = occupant
                return

    def _release_held_vial(self) -> None:
        vial_name = self._holding
        assert vial_name is not None
        self._holding = None
        ee_own = self.ee_position_own_frame()

        # Find the nearest location (in this arm's frame) to set the vial down.
        best_loc: Optional[Location] = None
        best_dist = float("inf")
        for loc in self.world.locations:
            try:
                coords = as_vec3(loc.coord_for(self.name))
            except KeyError:
                continue
            d = distance(ee_own, coords)
            if d < best_dist:
                best_dist = d
                best_loc = loc

        if best_loc is not None and best_dist <= self.GRASP_TOLERANCE + self.SAFE_DROP:
            self.world.place_vial(vial_name, best_loc.name)
            return

        # Released in mid-air: the vial falls and shatters.
        self.world.record_damage(
            DamageEvent(
                severity=DamageSeverity.MEDIUM_LOW,
                kind="vial_dropped",
                description=(
                    f"{self.name} opened its gripper away from any location; "
                    f"vial {vial_name!r} fell and broke"
                ),
                involved=(self.name, vial_name),
            )
        )
        self.world.vial(vial_name).shatter()

    def _shatter_held(self, how: str) -> None:
        vial_name = self._holding
        assert vial_name is not None
        self._holding = None
        self.world.record_damage(
            DamageEvent(
                severity=DamageSeverity.MEDIUM_LOW,
                kind="vial_crushed",
                description=f"vial {vial_name!r} held by {self.name} {how}",
                involved=(self.name, vial_name),
            )
        )
        self.world.vial(vial_name).shatter()
