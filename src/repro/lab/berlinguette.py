"""The Berlinguette Lab deck — the §V-B generalization study.

The paper visited this materials-science lab to test whether RABIT's four
device types and general rulebase transfer.  The observed devices map as:

===========================  =================  =========================
Device                       RABIT type         Notes
===========================  =================  =========================
UR5e robot arm               Robot Arm          central transfer arm
Solid dosing device + door   Dosing System      like the Hein device
Decapper                     Action Device      capping/uncapping actions
Spin coater                  Action Device      start/stop spinning
Hotplate (spray station)     Action Device      same as Hein
Automated syringe pump       Dosing System      draws/doses solvent
Ultrasonic nozzles           Action Device      spraying / not spraying
XRF microscope               Action Device      x-ray emission + shutter
===========================  =================  =========================

Every device categorizes into the existing four types — the paper's
conclusion — and the Hein-specific Table IV rules are simply *not
enabled* here, demonstrating the general/custom split's portability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import build_model
from repro.core.model import RabitLabModel
from repro.devices.action_device import (
    Decapper,
    Hotplate,
    SpinCoater,
    UltrasonicNozzle,
    XRFStation,
)
from repro.devices.base import Device, DoorState
from repro.devices.container import Vial
from repro.devices.dosing import SolidDosingDevice, SyringePump
from repro.devices.locations import LocationKind
from repro.devices.robot import RobotArmDevice
from repro.devices.world import LabWorld
from repro.geometry.shapes import Cuboid
from repro.geometry.transforms import identity
from repro.geometry.walls import Workspace
from repro.kinematics.profiles import UR5E

GEOMETRY: Dict[str, Dict[str, Any]] = {
    "platform": {"min": [-1.0, -1.0, -0.02], "max": [1.0, 1.0, 0.03], "surface": True},
    "grid": {"min": [0.35, -0.15, 0.0], "max": [0.60, 0.10, 0.05], "surface": False},
    "dosing_device": {"min": [-0.12, 0.40, 0.0], "max": [0.12, 0.64, 0.40], "surface": False},
    "decapper": {"min": [0.40, 0.35, 0.0], "max": [0.56, 0.51, 0.15], "surface": False},
    "spin_coater": {"min": [-0.55, -0.15, 0.0], "max": [-0.35, 0.05, 0.10], "surface": False},
    "hotplate": {"min": [-0.15, -0.60, 0.0], "max": [0.05, -0.40, 0.08], "surface": False},
    "syringe_pump": {"min": [-0.60, 0.30, 0.0], "max": [-0.45, 0.45, 0.35], "surface": False},
    "nozzle": {"min": [0.60, 0.20, 0.0], "max": [0.72, 0.32, 0.25], "surface": False},
    "xrf": {"min": [-0.72, -0.35, 0.0], "max": [-0.50, -0.15, 0.30], "surface": False},
}

LOCATIONS: Dict[str, Tuple[str, Optional[str], List[float]]] = {
    "bgrid_1": ("grid_slot", "grid", [0.42, -0.05, 0.14]),
    "bgrid_1_safe": ("free", None, [0.42, -0.05, 0.30]),
    "bgrid_2": ("grid_slot", "grid", [0.52, -0.05, 0.14]),
    "bgrid_2_safe": ("free", None, [0.52, -0.05, 0.30]),
    "bdosing_approach": ("device_approach", "dosing_device", [0.0, 0.32, 0.28]),
    "bdosing_interior": ("device_interior", "dosing_device", [0.0, 0.52, 0.14]),
    "decapper_slot": ("device_interior", "decapper", [0.48, 0.43, 0.22]),
    "decapper_safe": ("free", None, [0.48, 0.43, 0.35]),
    "coater_top": ("device_interior", "spin_coater", [-0.45, -0.05, 0.17]),
    "coater_safe": ("free", None, [-0.45, -0.05, 0.30]),
    "bhotplate_top": ("device_interior", "hotplate", [-0.05, -0.50, 0.15]),
    "bhotplate_safe": ("free", None, [-0.05, -0.50, 0.28]),
}


@dataclass
class BerlinguetteDeck:
    """The assembled Berlinguette R&D platform."""

    world: LabWorld
    devices: Dict[str, Device]
    vials: Dict[str, Vial]
    config: Dict[str, Any]
    model: RabitLabModel

    @property
    def ur5e(self) -> RobotArmDevice:
        """The central transfer arm."""
        arm = self.devices["ur5e"]
        assert isinstance(arm, RobotArmDevice)
        return arm

    def categorization(self) -> Dict[str, str]:
        """Device name -> RABIT device type (the §V-B mapping table)."""
        return {name: dev.kind.value for name, dev in self.devices.items()}


def build_berlinguette_deck(
    vial_names: Tuple[str, ...] = ("precursor_1", "precursor_2")
) -> BerlinguetteDeck:
    """Construct the Berlinguette deck with precursor vials on the rack."""
    world = LabWorld(
        "berlinguette",
        Workspace(bounds=Cuboid((-1.0, -1.0, -0.05), (1.0, 1.0, 1.4), name="blab_room")),
    )
    world.register_frame("ur5e", identity())

    boxes = {
        name: Cuboid(tuple(spec["min"]), tuple(spec["max"]), name=name)
        for name, spec in GEOMETRY.items()
    }
    world.add_surface(boxes["platform"])
    for name, (kind, device, coords) in LOCATIONS.items():
        world.locations.define(
            name, LocationKind(kind), coords={"ur5e": coords}, device=device
        )

    ur5e = RobotArmDevice("ur5e", UR5E, world)
    dosing = SolidDosingDevice(
        "dosing_device", world, max_dose_mg=10.0, door_initial=DoorState.CLOSED
    )
    decapper = Decapper("decapper", world)
    coater = SpinCoater("spin_coater", world, threshold=8000.0)
    hotplate = Hotplate("hotplate", world, threshold=150.0)
    pump = SyringePump("syringe_pump", world, dispense_location="coater_top")
    nozzle = UltrasonicNozzle("nozzle", world, threshold=50.0)
    xrf = XRFStation("xrf", world, threshold=50.0)

    world.add_device(ur5e)
    world.add_device(dosing, footprint=boxes["dosing_device"])
    world.add_device(decapper, footprint=boxes["decapper"])
    world.add_device(coater, footprint=boxes["spin_coater"])
    world.add_device(hotplate, footprint=boxes["hotplate"])
    world.add_device(pump, footprint=boxes["syringe_pump"])
    world.add_device(nozzle, footprint=boxes["nozzle"])
    world.add_device(xrf, footprint=boxes["xrf"])
    world.add_obstacle(boxes["grid"])  # passive fixture, not a device

    vials: Dict[str, Vial] = {}
    slots = ["bgrid_1", "bgrid_2"]
    for i, vial_name in enumerate(vial_names):
        vial = Vial(vial_name, capacity_solid_mg=10.0, capacity_liquid_ml=20.0)
        world.add_vial(vial, at_location=slots[i] if i < len(slots) else None)
        vials[vial_name] = vial

    devices: Dict[str, Device] = {
        "ur5e": ur5e,
        "dosing_device": dosing,
        "decapper": decapper,
        "spin_coater": coater,
        "hotplate": hotplate,
        "syringe_pump": pump,
        "nozzle": nozzle,
        "xrf": xrf,
        **vials,
    }
    config = _berlinguette_config(vial_names)
    model = build_model(config)
    return BerlinguetteDeck(
        world=world, devices=devices, vials=vials, config=config, model=model
    )


def _berlinguette_config(vial_names: Tuple[str, ...]) -> Dict[str, Any]:
    """The Berlinguette RABIT configuration.

    Notably: **no custom rules** — only the general rulebase, which is
    the generalization claim under test."""
    device_entries: List[Dict[str, Any]] = [
        {
            "name": "ur5e",
            "type": "robot_arm",
            "class": "RobotArmDevice",
            "frame": "ur5e",
            "link_radius": UR5E.link_radius,
            "gripper_clearance": RobotArmDevice.GRIPPER_CLEARANCE,
            "held_drop": RobotArmDevice.HELD_DROP,
        },
        {
            "name": "dosing_device",
            "type": "dosing_system",
            "class": "SolidDosingDevice",
            "door": {"present": True, "initial": "closed"},
            "load_location": "bdosing_interior",
        },
        {
            "name": "decapper",
            "type": "action_device",
            "class": "Decapper",
            "threshold": 1.0,
            "load_location": "decapper_slot",
            "requires_container": False,
        },
        {
            "name": "spin_coater",
            "type": "action_device",
            "class": "SpinCoater",
            "threshold": 8000.0,
            "load_location": "coater_top",
        },
        {
            "name": "hotplate",
            "type": "action_device",
            "class": "Hotplate",
            "threshold": 150.0,
            "load_location": "bhotplate_top",
        },
        {
            "name": "syringe_pump",
            "type": "dosing_system",
            "class": "SyringePump",
            "dispense_location": "coater_top",
        },
        {
            "name": "nozzle",
            "type": "action_device",
            "class": "UltrasonicNozzle",
            "threshold": 50.0,
            "requires_container": False,
        },
        {
            "name": "xrf",
            "type": "action_device",
            "class": "XRFStation",
            "threshold": 50.0,
            "door": {"present": True, "initial": "closed"},
            "requires_container": False,
        },
    ]
    for vial_name in vial_names:
        device_entries.append(
            {
                "name": vial_name,
                "type": "container",
                "class": "Vial",
                "capacity_solid_mg": 10.0,
                "capacity_liquid_ml": 20.0,
            }
        )
    return {
        "lab": "berlinguette",
        "devices": device_entries,
        "locations": [
            {"name": name, "kind": kind, "device": device, "coords": {"ur5e": list(coords)}}
            for name, (kind, device, coords) in LOCATIONS.items()
        ],
        "obstacles": [
            {
                "name": name,
                "surface": spec["surface"],
                "frames": {"ur5e": {"min": list(spec["min"]), "max": list(spec["max"])}},
            }
            for name, spec in GEOMETRY.items()
        ],
        "workspace": {"ur5e": {"min": [-0.95, -0.95, 0.02], "max": [0.95, 0.95, 1.3]}},
        "custom_rules": [],
        "reliable_container_tracking": True,
    }
