"""The dual-arm testbed deck (Fig. 4).

ViperX-300 at the world origin; Ned2 mounted 0.82 m away, rotated 180°
so the two arms face each other across a shared vial grid.  Each arm
keeps **its own coordinate frame** (the lab's de facto convention); only
the ground-truth world knows the exact transform between them.

Deck geometry is chosen so that:

- the Fig. 6 location table reproduces (dosing-device approach /
  pickup-safe-height / pickup staging for ViperX, with the pickup at
  z = 0.10 leaving 1 cm of held-vial clearance over the platform slab —
  Bug D's z = 0.08 removes it);
- both arms can reach their own grid slots but legitimate workflows never
  cross the deck midline, so space multiplexing's software wall at world
  x = 0.47 is compatible with all safe traffic;
- the Fig. 5 ``random_location`` analogue sits inside ViperX's parked
  envelope, reproducing Bug B's arm-arm collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import build_model
from repro.core.model import RabitLabModel
from repro.core.monitor import Rabit
from repro.core.multiplexing import SpaceMultiplexer, TimeMultiplexer
from repro.devices.action_device import Centrifuge, Hotplate, Thermoshaker
from repro.devices.base import Device, DoorState
from repro.devices.container import Vial
from repro.devices.dosing import SolidDosingDevice
from repro.devices.locations import LocationKind
from repro.devices.robot import RobotArmDevice
from repro.devices.world import LabWorld
from repro.geometry.shapes import Cuboid, bounding_cuboid
from repro.geometry.transforms import identity, rotation_z, translation
from repro.geometry.walls import SoftwareWall, Workspace
from repro.kinematics.profiles import NED2, VIPERX_300

#: Ned2's mounting: 0.82 m along world x, rotated 180° about z.
NED2_BASE = translation([0.82, 0.0, 0.0]) @ rotation_z(math.pi)

#: World-frame obstacle cuboids of the mockups.
GEOMETRY: Dict[str, Dict[str, Any]] = {
    "platform": {"min": [-0.6, -0.6, -0.02], "max": [1.4, 0.6, 0.03], "surface": True},
    "grid": {"min": [0.38, -0.08, 0.0], "max": [0.64, 0.10, 0.05], "surface": False},
    "dosing_device": {"min": [0.05, 0.38, 0.0], "max": [0.25, 0.58, 0.30], "surface": False},
    "thermoshaker": {"min": [0.30, -0.44, 0.0], "max": [0.44, -0.26, 0.12], "surface": False},
    "centrifuge": {"min": [-0.30, 0.30, 0.0], "max": [-0.10, 0.50, 0.22], "surface": False},
    "hotplate": {"min": [0.95, -0.45, 0.0], "max": [1.15, -0.25, 0.08], "surface": False},
}

#: Locations: name -> (kind, owning device/obstacle, {frame: [x, y, z]}).
#: Coordinates are deliberately only provided in the frame(s) of the
#: arm(s) that use them (the Fig. 6 style).
LOCATIONS: Dict[str, Tuple[str, Optional[str], Dict[str, List[float]]]] = {
    # ViperX side (frame == world).
    "grid_nw_viperx": ("grid_slot", "grid", {"viperx": [0.44, 0.0, 0.12]}),
    "grid_nw_viperx_safe": ("free", None, {"viperx": [0.44, 0.0, 0.25]}),
    "dosing_approach_viperx": (
        "device_approach", "dosing_device", {"viperx": [0.15, 0.33, 0.19]}
    ),
    "dosing_safe_viperx": (
        "device_interior", "dosing_device", {"viperx": [0.15, 0.48, 0.19]}
    ),
    "dosing_pickup_viperx": (
        "device_interior", "dosing_device", {"viperx": [0.15, 0.45, 0.10]}
    ),
    "centrifuge_approach_viperx": (
        "device_approach", "centrifuge", {"viperx": [-0.20, 0.26, 0.30]}
    ),
    "centrifuge_slot_viperx": (
        "device_interior", "centrifuge", {"viperx": [-0.20, 0.40, 0.12]}
    ),
    # Ned2 side (ned2 frame).  The shared grid slot also carries
    # ViperX-frame coordinates (world == viperx frame), so a buggy script
    # can command ViperX across the deck midline (the MH6 scenario).
    "grid_ne_ned2": (
        "grid_slot", "grid",
        {"ned2": [0.25, -0.05, 0.12], "viperx": [0.57, 0.05, 0.12]},
    ),
    "grid_ne_ned2_safe": (
        "free", None,
        {"ned2": [0.25, -0.05, 0.25], "viperx": [0.57, 0.05, 0.25]},
    ),
    "hotplate_top_ned2": ("device_interior", "hotplate", {"ned2": [-0.23, 0.35, 0.14]}),
    "hotplate_safe_ned2": ("free", None, {"ned2": [-0.23, 0.35, 0.26]}),
}

VIAL_CAPACITY_SOLID_MG = 10.0

#: Physical room limits: a real wall runs along world y = 0.58 on the
#: ViperX side (the wall Bug MH5 pokes a hole in).
ROOM = Cuboid((-0.7, -0.6, -0.05), (1.5, 0.58, 1.0), name="testbed_room")

#: Configured per-frame workspace bounds (modified RABIT's deck-edge fix).
WORKSPACE_BOUNDS: Dict[str, Dict[str, List[float]]] = {
    "viperx": {"min": [-0.55, -0.52, 0.02], "max": [0.72, 0.55, 1.0]},
    "ned2": {"min": [-0.40, -0.50, 0.02], "max": [0.60, 0.50, 0.9]},
}

#: Space multiplexing: the software wall sits at world x = 0.47.
WALL_WORLD_X = 0.47


@dataclass
class TestbedDeck:
    """The assembled testbed."""

    world: LabWorld
    devices: Dict[str, Device]
    vials: Dict[str, Vial]
    config: Dict[str, Any]
    model: RabitLabModel

    @property
    def viperx(self) -> RobotArmDevice:
        """The ViperX-300 arm."""
        arm = self.devices["viperx"]
        assert isinstance(arm, RobotArmDevice)
        return arm

    @property
    def ned2(self) -> RobotArmDevice:
        """The Ned2 arm."""
        arm = self.devices["ned2"]
        assert isinstance(arm, RobotArmDevice)
        return arm


def _world_to_ned2(box: Cuboid) -> Cuboid:
    """Express a world-frame cuboid in the Ned2 frame (180° z-rotation
    keeps AABBs axis-aligned)."""
    inv = NED2_BASE.inverse()
    corners = [inv.apply(c) for c in box.corners()]
    return bounding_cuboid(corners, name=box.name)


def build_testbed_deck(
    noise_sigma: float = 0.0, vial_names: Tuple[str, ...] = ("vial_t1", "vial_t2")
) -> TestbedDeck:
    """Construct the testbed; ``noise_sigma`` adds arm actuation noise."""
    world = LabWorld("testbed", Workspace(bounds=ROOM))
    world.register_frame("viperx", identity())
    world.register_frame("ned2", NED2_BASE)

    boxes = {
        name: Cuboid(tuple(spec["min"]), tuple(spec["max"]), name=name)
        for name, spec in GEOMETRY.items()
    }
    world.add_surface(boxes["platform"])

    for name, (kind, device, coords) in LOCATIONS.items():
        world.locations.define(name, LocationKind(kind), coords=coords, device=device)

    viperx = RobotArmDevice("viperx", VIPERX_300, world, noise_sigma=noise_sigma, seed=7)
    ned2 = RobotArmDevice("ned2", NED2, world, noise_sigma=noise_sigma, seed=11)
    dosing = SolidDosingDevice(
        "dosing_device", world, max_dose_mg=VIAL_CAPACITY_SOLID_MG,
        door_initial=DoorState.CLOSED,
    )
    centrifuge = Centrifuge("centrifuge", world)
    shaker = Thermoshaker("thermoshaker", world)
    hotplate = Hotplate("hotplate", world)

    world.add_device(viperx)
    world.add_device(ned2)
    world.add_device(dosing, footprint=boxes["dosing_device"])
    world.add_device(centrifuge, footprint=boxes["centrifuge"])
    world.add_device(shaker, footprint=boxes["thermoshaker"])
    world.add_device(hotplate, footprint=boxes["hotplate"])
    world.add_obstacle(boxes["grid"])  # passive fixture, not a device

    vials: Dict[str, Vial] = {}
    slots = ["grid_nw_viperx", "grid_ne_ned2"]
    for i, vial_name in enumerate(vial_names):
        vial = Vial(vial_name, capacity_solid_mg=VIAL_CAPACITY_SOLID_MG, stoppered=True)
        world.add_vial(vial, at_location=slots[i] if i < len(slots) else None)
        vials[vial_name] = vial

    devices: Dict[str, Device] = {
        "viperx": viperx,
        "ned2": ned2,
        "dosing_device": dosing,
        "centrifuge": centrifuge,
        "thermoshaker": shaker,
        "hotplate": hotplate,
        **vials,
    }
    config = _testbed_config(vial_names)
    model = build_model(config)
    return TestbedDeck(world=world, devices=devices, vials=vials, config=config, model=model)


def _testbed_config(vial_names: Tuple[str, ...]) -> Dict[str, Any]:
    """The testbed's RABIT JSON configuration.

    ``reliable_container_tracking`` is **False**: pick/place on the
    testbed go through raw gripper commands, so container positions are
    best-effort beliefs and presence-requiring rules only alarm on
    provable violations (the Bug C mechanism).
    """
    device_entries: List[Dict[str, Any]] = [
        {
            "name": "viperx",
            "type": "robot_arm",
            "class": "RobotArmDevice",
            "frame": "viperx",
            "link_radius": VIPERX_300.link_radius,
            "gripper_clearance": RobotArmDevice.GRIPPER_CLEARANCE,
            "held_drop": RobotArmDevice.HELD_DROP,
        },
        {
            "name": "ned2",
            "type": "robot_arm",
            "class": "RobotArmDevice",
            "frame": "ned2",
            "link_radius": NED2.link_radius,
            "gripper_clearance": RobotArmDevice.GRIPPER_CLEARANCE,
            "held_drop": RobotArmDevice.HELD_DROP,
        },
        {
            "name": "dosing_device",
            "type": "dosing_system",
            "class": "SolidDosingDevice",
            "door": {"present": True, "initial": "closed"},
            "load_location": "dosing_pickup_viperx",
        },
        {
            "name": "centrifuge",
            "type": "action_device",
            "class": "Centrifuge",
            "threshold": 6000.0,
            "door": {"present": True, "initial": "open"},
            "load_location": "centrifuge_slot_viperx",
        },
        {
            "name": "thermoshaker",
            "type": "action_device",
            "class": "Thermoshaker",
            "threshold": 1500.0,
        },
        {
            "name": "hotplate",
            "type": "action_device",
            "class": "Hotplate",
            "threshold": 120.0,
            "load_location": "hotplate_top_ned2",
        },
    ]
    for vial_name in vial_names:
        device_entries.append(
            {
                "name": vial_name,
                "type": "container",
                "class": "Vial",
                "capacity_solid_mg": VIAL_CAPACITY_SOLID_MG,
            }
        )

    obstacles = []
    for name, spec in GEOMETRY.items():
        box = Cuboid(tuple(spec["min"]), tuple(spec["max"]), name=name)
        ned2_box = _world_to_ned2(box)
        obstacles.append(
            {
                "name": name,
                "surface": spec["surface"],
                "frames": {
                    "viperx": {"min": list(spec["min"]), "max": list(spec["max"])},
                    "ned2": {
                        "min": [round(v, 6) for v in ned2_box.lo],
                        "max": [round(v, 6) for v in ned2_box.hi],
                    },
                },
            }
        )

    return {
        "lab": "testbed",
        "devices": device_entries,
        "locations": [
            {"name": name, "kind": kind, "device": device,
             "coords": {f: list(c) for f, c in coords.items()}}
            for name, (kind, device, coords) in LOCATIONS.items()
        ],
        "obstacles": obstacles,
        "workspace": WORKSPACE_BOUNDS,
        "custom_rules": ["C1", "C2", "C3", "C4"],
        "reliable_container_tracking": False,
    }


def sleep_footprints(deck: TestbedDeck) -> Dict[str, Dict[str, Cuboid]]:
    """Each arm's sleep-pose cuboid, expressed in **both** frames.

    This is the paper's time-multiplexing prerequisite: "we specify Ned2's
    shape and sleep position in ViperX's environment (and vice versa)".
    """
    out: Dict[str, Dict[str, Cuboid]] = {}
    for arm in (deck.viperx, deck.ned2):
        chain = arm.kinematics.chain
        polyline_own = chain.joint_positions(arm.profile.sleep_q)
        to_world = deck.world.frames.to_world(arm.name)
        world_pts = [to_world.apply(p) for p in polyline_own]
        world_box = bounding_cuboid(world_pts, name=f"sleeping_{arm.name}").inflated(
            arm.profile.link_radius
        )
        frames: Dict[str, Cuboid] = {}
        for frame in ("viperx", "ned2"):
            inv = deck.world.frames.to_world(frame).inverse()
            corners = [inv.apply(c) for c in world_box.corners()]
            frames[frame] = bounding_cuboid(corners, name=world_box.name)
        out[arm.name] = frames
    return out


def attach_time_multiplexing(rabit: Rabit, deck: TestbedDeck) -> TimeMultiplexer:
    """Enable time multiplexing on a testbed monitor."""
    return TimeMultiplexer(rabit, sleep_footprints(deck))


def attach_space_multiplexing(rabit: Rabit, deck: TestbedDeck) -> SpaceMultiplexer:
    """Enable space multiplexing: one software wall at world x = 0.47.

    ViperX (frame == world) must keep x <= 0.47; Ned2, whose frame is the
    180°-rotated one, must keep its own x <= 0.82 - 0.47 = 0.35.
    """
    walls = {
        "viperx": SoftwareWall((1.0, 0.0, 0.0), WALL_WORLD_X, name="deck_divider"),
        "ned2": SoftwareWall((1.0, 0.0, 0.0), 0.82 - WALL_WORLD_X, name="deck_divider"),
    }
    return SpaceMultiplexer(rabit, walls)
