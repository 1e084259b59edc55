"""RABIT's own model of the lab, populated from JSON configuration.

This is *RABIT's belief*, distinct from the ground-truth
:class:`~repro.devices.world.LabWorld`.  The researcher describes their
deck in JSON (§II-C): each device's type, class name, door, thresholds,
load location, plus the named locations and the 3D cuboids of every
obstacle **per robot-arm frame** (the paper keeps separate coordinate
systems per arm and specifies, e.g., "Ned2's shape and sleep position in
ViperX's environment").

The model also carries ``extra_preconditions`` — the hook the paper used
when it "modif[ied] RABIT to add preconditions" for time multiplexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.actions import ActionCall, TransitionContext
from repro.core.state import LabState
from repro.devices.base import DeviceKind
from repro.geometry.shapes import Cuboid
from repro.geometry.walls import SoftwareWall

#: An extra precondition: returns a violation message or ``None``.
ExtraPrecondition = Callable[[LabState, ActionCall], Optional[str]]


@dataclass
class DeviceModel:
    """What the JSON config says about one device."""

    name: str
    kind: DeviceKind
    class_name: str
    has_door: bool = False
    #: Named doors for multi-door devices (§V-C); empty means the single
    #: unnamed door when ``has_door`` is set.
    door_names: Tuple[str, ...] = ()
    #: Safety threshold for action devices (Rule 11); ``None`` if not applicable.
    threshold: Optional[float] = None
    #: Whether Rules 5/6 apply (the device acts *on* a loaded container).
    requires_container: bool = True
    #: Location name where this device's container sits, if any.
    load_location: Optional[str] = None
    #: For dosing systems that dispense at a fixed deck point (syringe pump).
    dispense_location: Optional[str] = None
    #: Container capacities (Rule 8 / the Fig. 1(b) amount check).
    capacity_solid_mg: Optional[float] = None
    capacity_liquid_ml: Optional[float] = None
    # Robot-arm geometry RABIT uses for collision preconditions:
    frame: Optional[str] = None
    gripper_clearance: float = 0.025
    held_drop: float = 0.06
    link_radius: float = 0.04


@dataclass
class ObstacleModel:
    """A 3D cuboid obstacle, expressed in one or more arm frames.

    ``surface=True`` marks support slabs (deck platform, trays): these are
    checked against gripper/held-object *tips* only, since arms are mounted
    on them (see :mod:`repro.devices.robot` for the ground-truth analogue).
    """

    name: str
    frames: Dict[str, Cuboid]
    surface: bool = False

    def in_frame(self, frame: str) -> Optional[Cuboid]:
        """The obstacle's cuboid in *frame*, if configured."""
        return self.frames.get(frame)


@dataclass
class LocationModel:
    """What the config says about one named location."""

    name: str
    kind: str  # "free" | "device_interior" | "device_approach" | "grid_slot"
    device: Optional[str] = None
    #: Named door guarding this interior on multi-door devices.
    via_door: Optional[str] = None
    coords: Dict[str, Tuple[float, float, float]] = field(default_factory=dict)


class RabitLabModel:
    """RABIT's complete view of a lab, assembled from configuration."""

    def __init__(self, lab_name: str = "lab") -> None:
        self.lab_name = lab_name
        self._devices: Dict[str, DeviceModel] = {}
        self._obstacles: Dict[str, ObstacleModel] = {}
        self._locations: Dict[str, LocationModel] = {}
        #: Additional preconditions registered at run time (multiplexing).
        self.extra_preconditions: List[ExtraPrecondition] = []
        #: Software walls per robot frame (space multiplexing).
        self.walls: Dict[str, List[SoftwareWall]] = {}
        #: Enabled custom rule ids (Table IV subset).
        self.custom_rule_ids: List[str] = []
        #: Whether modeled pick/place wrapper commands keep container
        #: positions trustworthy (production Hein deck: True; testbed with
        #: raw gripper commands: False).  Presence-requiring rules only
        #: alarm on *provable* violations, so they skip when this is False
        #: and the needed belief is missing.
        self.reliable_container_tracking: bool = False
        #: Per-frame reachable-workspace cuboids, enforced only by
        #: modified RABIT (the post-campaign wall/deck-edge fix).
        self.workspace_bounds: Dict[str, Cuboid] = {}
        #: Bumped on every structural mutation (devices, obstacles,
        #: locations).  The rule-verdict cache and the Extended Simulator's
        #: packed-engine cache key on it, so time multiplexing swapping a
        #: sleeping arm's cuboid in or out invalidates both.
        self.geometry_revision: int = 0

    # -- population -------------------------------------------------------------

    def add_device(self, device: DeviceModel) -> DeviceModel:
        """Register a device description."""
        if device.name in self._devices:
            raise ValueError(f"duplicate device {device.name!r} in configuration")
        self._devices[device.name] = device
        self.geometry_revision += 1
        return device

    def add_obstacle(self, obstacle: ObstacleModel) -> ObstacleModel:
        """Register an obstacle description."""
        if obstacle.name in self._obstacles:
            raise ValueError(f"duplicate obstacle {obstacle.name!r} in configuration")
        self._obstacles[obstacle.name] = obstacle
        self.geometry_revision += 1
        return obstacle

    def remove_obstacle(self, name: str) -> None:
        """Drop an obstacle (time multiplexing swaps arm cuboids in and out)."""
        if self._obstacles.pop(name, None) is not None:
            self.geometry_revision += 1

    def add_location(self, location: LocationModel) -> LocationModel:
        """Register a location description."""
        if location.name in self._locations:
            raise ValueError(f"duplicate location {location.name!r} in configuration")
        self._locations[location.name] = location
        self.geometry_revision += 1
        return location

    def belief_fingerprint(self) -> Tuple:
        """Everything rule checks read from the model that can change at
        run time, digested for the rule-verdict cache key.

        Walls are appended per frame by space multiplexing without going
        through a mutator, so the (frozen, hashable) walls themselves are
        folded in here alongside the structural revision counter, as are
        the workspace-bound corners.
        """
        return (
            self.geometry_revision,
            self.reliable_container_tracking,
            tuple(sorted((frame, tuple(ws)) for frame, ws in self.walls.items())),
            tuple(
                sorted(
                    (frame, c.min_corner, c.max_corner)
                    for frame, c in self.workspace_bounds.items()
                )
            ),
        )

    # -- queries -----------------------------------------------------------------

    def device(self, name: str) -> DeviceModel:
        """Device description by name."""
        try:
            return self._devices[name]
        except KeyError:
            raise KeyError(
                f"device {name!r} not in configuration; known: {sorted(self._devices)}"
            ) from None

    def has_device(self, name: str) -> bool:
        """Whether the configuration describes *name*."""
        return name in self._devices

    def devices(self) -> Tuple[DeviceModel, ...]:
        """All configured devices."""
        return tuple(self._devices.values())

    def robots(self) -> Tuple[DeviceModel, ...]:
        """All configured robot arms."""
        return tuple(
            d for d in self._devices.values() if d.kind is DeviceKind.ROBOT_ARM
        )

    def location(self, name: str) -> LocationModel:
        """Location description by name."""
        try:
            return self._locations[name]
        except KeyError:
            raise KeyError(
                f"location {name!r} not in configuration; known: {sorted(self._locations)}"
            ) from None

    def locations(self) -> Tuple[LocationModel, ...]:
        """All configured locations."""
        return tuple(self._locations.values())

    def interior_owner(self, location_name: Optional[str]) -> Optional[str]:
        """Owning device of an interior location (None otherwise)."""
        if location_name is None or location_name not in self._locations:
            return None
        loc = self._locations[location_name]
        return loc.device if loc.kind == "device_interior" else None

    def collision_exclusions(self, call: ActionCall, state: LabState) -> List[str]:
        """Devices whose cuboids the collision probes of *call* ignore.

        The interior owner whose door RABIT believes open (the arm is
        meant to reach in), the device the arm is inside, and a grid
        slot's owning structure (which tolerates the gripper dipping to
        its slots).  G3's target check and the Extended Simulator's sweep
        both exclude exactly these."""
        exclude: List[str] = []
        owner = self.interior_owner(call.location)
        if owner is not None and state.get("door_status", owner, "open") == "open":
            exclude.append(owner)
        currently_inside = state.get("robot_inside", call.robot)
        if currently_inside is not None:
            exclude.append(currently_inside)
        if call.location is not None:
            loc = self.location(call.location)
            if loc.kind == "grid_slot" and loc.device:
                exclude.append(loc.device)
        return exclude

    def load_location(self, device_name: str) -> Optional[str]:
        """Where *device_name*'s container sits (load or dispense point)."""
        if device_name not in self._devices:
            return None
        dev = self._devices[device_name]
        return dev.load_location or dev.dispense_location

    def obstacles_for_frame(
        self, frame: str, exclude: Sequence[str] = ()
    ) -> List[Cuboid]:
        """Non-surface obstacle cuboids expressed in *frame*."""
        out: List[Cuboid] = []
        for obstacle in self._obstacles.values():
            if obstacle.surface or obstacle.name in exclude:
                continue
            box = obstacle.in_frame(frame)
            if box is not None:
                out.append(box)
        return out

    def surfaces_for_frame(
        self, frame: str, exclude: Sequence[str] = ()
    ) -> List[Cuboid]:
        """Surface slabs expressed in *frame*."""
        out: List[Cuboid] = []
        for obstacle in self._obstacles.values():
            if not obstacle.surface or obstacle.name in exclude:
                continue
            box = obstacle.in_frame(frame)
            if box is not None:
                out.append(box)
        return out

    def location_via_door(self, location_name: Optional[str]) -> Optional[str]:
        """Named door guarding *location_name* (multi-door devices)."""
        if location_name is None or location_name not in self._locations:
            return None
        return self._locations[location_name].via_door

    def transition_context(self) -> TransitionContext:
        """Adapter handed to the transition table's postconditions."""
        return TransitionContext(
            interior_owner=self.interior_owner,
            load_location=self.load_location,
            via_door=self.location_via_door,
        )
