"""The §V-C two-door deck as a first-class lab.

The multi-door extension ("devices might have multiple doors, for
instance, for two robot arms to approach the device simultaneously")
previously existed only as a test-local fixture.  Promoting it to a
real deck gives the trace corpus a scenario that exercises every
multi-door mechanism at once — compound ``device:door`` state keys,
per-door G1 entry checks, entry-door-only G2 protection, and
all-doors-closed G9 — in one recordable, replayable run (the
``two_door`` workflow preset).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict

from repro.core.config import build_model
from repro.core.model import RabitLabModel
from repro.devices.base import Device, DoorState
from repro.devices.container import Vial
from repro.devices.locations import LocationKind
from repro.devices.multi_door import MultiDoorDosingDevice
from repro.devices.robot import RobotArmDevice
from repro.devices.world import LabWorld
from repro.geometry.shapes import Cuboid
from repro.geometry.transforms import identity, rotation_z, translation
from repro.geometry.walls import Workspace
from repro.kinematics.profiles import NED2, VIPERX_300

#: Ned2's mounting, identical to the testbed: 0.82 m along world x,
#: rotated 180° about z so the arms face each other.
NED2_BASE = translation([0.82, 0.0, 0.0]) @ rotation_z(math.pi)

#: The shared device sits between the arms; the front slot serves ViperX,
#: the back slot serves Ned2 (world frame == viperx frame).
DEVICE_BOX = {"min": [0.40, 0.18, 0.0], "max": [0.60, 0.38, 0.30]}
FRONT_SLOT_VIPERX = [0.44, 0.28, 0.12]
BACK_SLOT_WORLD = [0.55, 0.28, 0.12]


@dataclass
class TwoDoorDeck:
    """The assembled two-door lab."""

    world: LabWorld
    devices: Dict[str, Device]
    vials: Dict[str, Vial]
    config: Dict[str, Any]
    model: RabitLabModel


def build_two_door_deck() -> TwoDoorDeck:
    """Two arms, one shared dosing device, two named doors."""
    world = LabWorld(
        "two-door",
        Workspace(bounds=Cuboid((-0.7, -0.6, -0.05), (1.5, 0.6, 1.0), name="room")),
    )
    world.register_frame("viperx", identity())
    world.register_frame("ned2", NED2_BASE)
    world.add_surface(Cuboid((-0.6, -0.6, -0.02), (1.4, 0.6, 0.03), name="platform"))

    back_ned2 = NED2_BASE.inverse().apply(BACK_SLOT_WORLD)
    world.locations.define(
        "mdoser_front", LocationKind.DEVICE_INTERIOR,
        {"viperx": FRONT_SLOT_VIPERX}, device="mdoser", via_door="front",
    )
    world.locations.define(
        "mdoser_back", LocationKind.DEVICE_INTERIOR,
        {"ned2": [float(x) for x in back_ned2]}, device="mdoser", via_door="back",
    )
    world.locations.define(
        "front_approach", LocationKind.DEVICE_APPROACH,
        {"viperx": [0.44, 0.10, 0.20]}, device="mdoser",
    )
    world.locations.define(
        "back_approach", LocationKind.DEVICE_APPROACH,
        {"ned2": [0.27, -0.10, 0.20]}, device="mdoser",
    )

    viperx = world.add_device(RobotArmDevice("viperx", VIPERX_300, world))
    ned2 = world.add_device(RobotArmDevice("ned2", NED2, world))
    mdoser = world.add_device(
        MultiDoorDosingDevice(
            "mdoser", world, door_names=("front", "back"),
            door_initial=DoorState.CLOSED,
        ),
        footprint=Cuboid(
            tuple(DEVICE_BOX["min"]), tuple(DEVICE_BOX["max"]), name="mdoser"
        ),
    )
    vial = world.add_vial(Vial("mv", stoppered=False), at_location="mdoser_front")

    config = {
        "lab": "two-door",
        "devices": [
            {"name": "viperx", "type": "robot_arm", "class": "RobotArmDevice",
             "frame": "viperx"},
            {"name": "ned2", "type": "robot_arm", "class": "RobotArmDevice",
             "frame": "ned2"},
            {"name": "mdoser", "type": "dosing_system", "class": "MultiDoorDosingDevice",
             "door": {"present": True, "initial": "closed", "names": ["front", "back"]},
             "load_location": "mdoser_front"},
            {"name": "mv", "type": "container", "class": "Vial",
             "capacity_solid_mg": 10.0},
        ],
        "locations": [
            {"name": "mdoser_front", "kind": "device_interior", "device": "mdoser",
             "via_door": "front", "coords": {"viperx": FRONT_SLOT_VIPERX}},
            {"name": "mdoser_back", "kind": "device_interior", "device": "mdoser",
             "via_door": "back", "coords": {"ned2": [float(x) for x in back_ned2]}},
            {"name": "front_approach", "kind": "device_approach", "device": "mdoser",
             "coords": {"viperx": [0.44, 0.10, 0.20]}},
            {"name": "back_approach", "kind": "device_approach", "device": "mdoser",
             "coords": {"ned2": [0.27, -0.10, 0.20]}},
        ],
        "obstacles": [
            {"name": "mdoser", "surface": False, "frames": {"viperx": dict(DEVICE_BOX)}},
            {"name": "platform", "surface": True,
             "frames": {"viperx": {"min": [-0.6, -0.6, -0.02], "max": [1.4, 0.6, 0.03]}}},
        ],
        "custom_rules": [],
        "reliable_container_tracking": True,
    }
    model = build_model(config)
    devices: Dict[str, Device] = {
        "viperx": viperx, "ned2": ned2, "mdoser": mdoser, "mv": vial,
    }
    return TwoDoorDeck(
        world=world, devices=devices, vials={"mv": vial}, config=config, model=model
    )
