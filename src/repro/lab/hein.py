"""The Hein Lab production deck (Fig. 1(a)).

One UR3e arm surrounded by five automation devices: a solid dosing device
(with the software-controlled glass door), an automated syringe pump, a
centrifuge (with lid and rotor red dot), a thermoshaker, and a hotplate,
plus a vial grid.  The deck is laid out in the UR3e's own coordinate
frame, which doubles as the world frame (single-arm deck).

:func:`build_hein_deck` constructs both the ground-truth world *and* the
JSON configuration document a researcher would write for RABIT; the
config is deliberately round-tripped through the real
:mod:`repro.core.config` loader, so every run exercises the same path the
pilot-study participant used.  :func:`repro.lab.decks.make_rabit` wires
up monitor, Extended Simulator, and tracing proxies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import build_model
from repro.core.model import RabitLabModel
from repro.devices.action_device import Centrifuge, Hotplate, Thermoshaker
from repro.devices.base import Device, DoorState
from repro.devices.container import Vial
from repro.devices.dosing import SolidDosingDevice, SyringePump
from repro.devices.locations import LocationKind
from repro.devices.robot import RobotArmDevice
from repro.devices.world import LabWorld
from repro.geometry.shapes import Cuboid
from repro.geometry.transforms import identity
from repro.geometry.walls import Workspace
from repro.kinematics.profiles import UR3E

#: Deck geometry, UR3e frame (= world frame).  All metres.  Chosen so that
#: every scripted location is inside the UR3e's 0.5 m reach, gripper and
#: held-vial clearances over obstacle tops are ~1 cm in legitimate
#: workflows, and the platform slab top sits at z = 0.03.
GEOMETRY: Dict[str, Dict[str, Any]] = {
    "platform": {"min": [-0.8, -0.8, -0.02], "max": [0.8, 0.8, 0.03], "surface": True},
    "grid": {"min": [0.25, -0.15, 0.0], "max": [0.45, 0.05, 0.05], "surface": False},
    "dosing_device": {"min": [-0.10, 0.28, 0.0], "max": [0.10, 0.48, 0.35], "surface": False},
    "hotplate": {"min": [-0.45, -0.10, 0.0], "max": [-0.25, 0.10, 0.08], "surface": False},
    "centrifuge": {"min": [-0.10, -0.48, 0.0], "max": [0.10, -0.28, 0.25], "surface": False},
    "thermoshaker": {"min": [0.18, 0.18, 0.0], "max": [0.34, 0.34, 0.12], "surface": False},
    "syringe_pump": {"min": [-0.52, 0.25, 0.0], "max": [-0.38, 0.40, 0.30], "surface": False},
}

#: Named locations, UR3e frame: (kind, owning device, [x, y, z]).
LOCATIONS: Dict[str, Tuple[str, Optional[str], List[float]]] = {
    "grid_a1": ("grid_slot", "grid", [0.30, -0.05, 0.12]),
    "grid_a1_safe": ("free", None, [0.30, -0.05, 0.28]),
    "grid_a2": ("grid_slot", "grid", [0.38, -0.05, 0.12]),
    "grid_a2_safe": ("free", None, [0.38, -0.05, 0.26]),
    "dosing_approach": ("device_approach", "dosing_device", [0.0, 0.22, 0.22]),
    "dosing_interior": ("device_interior", "dosing_device", [0.0, 0.38, 0.12]),
    "hotplate_top": ("device_interior", "hotplate", [-0.35, 0.0, 0.15]),
    "hotplate_safe": ("free", None, [-0.35, 0.0, 0.28]),
    "centrifuge_approach": ("device_approach", "centrifuge", [0.0, -0.24, 0.32]),
    "centrifuge_slot": ("device_interior", "centrifuge", [0.0, -0.38, 0.13]),
    "shaker_top": ("device_interior", "thermoshaker", [0.26, 0.26, 0.19]),
    "shaker_safe": ("free", None, [0.26, 0.26, 0.30]),
}

HOTPLATE_MAX_TEMP = 120.0
CENTRIFUGE_MAX_RPM = 6000.0
SHAKER_MAX_RPM = 1500.0
VIAL_CAPACITY_SOLID_MG = 10.0
VIAL_CAPACITY_LIQUID_ML = 20.0


@dataclass
class HeinDeck:
    """The assembled production deck."""

    world: LabWorld
    devices: Dict[str, Device]
    vials: Dict[str, Vial]
    config: Dict[str, Any]
    model: RabitLabModel

    @property
    def ur3e(self) -> RobotArmDevice:
        """The deck's robot arm."""
        arm = self.devices["ur3e"]
        assert isinstance(arm, RobotArmDevice)
        return arm


def build_hein_deck(
    vial_names: Tuple[str, ...] = ("vial_1", "vial_2"),
    world_geometry: bool = True,
) -> HeinDeck:
    """Construct the Hein Lab production deck with vials on the grid.

    The first vial rests at ``grid_a1``, the second at ``grid_a2``; both
    start stoppered and empty, matching the start of the solubility
    workflow.

    ``world_geometry=False`` builds the same deck minus the ground-truth
    collision geometry (no surfaces, footprints, or passive obstacles in
    the *world* — RABIT's configuration/model keep the full cuboid set),
    the serve throughput benchmark's stand-in for a remote lab whose real
    physics happen on the other side of an I/O boundary.  The arm still
    walks every sample of each move (``RobotArmDevice._run_plan``), but
    with no obstacle or surface to probe, so only the room bounds can
    stop it.  Guard verdicts are unaffected: the monitor and Extended
    Simulator only ever read the config-derived model.
    """
    room = Workspace(
        bounds=Cuboid((-0.8, -0.8, -0.05), (0.8, 0.8, 1.2), name="lab_room")
    )
    world = LabWorld("hein", room)
    world.register_frame("ur3e", identity())

    # Obstacles and surfaces (ground truth, world frame).
    if world_geometry:
        for name, spec in GEOMETRY.items():
            box = Cuboid(tuple(spec["min"]), tuple(spec["max"]), name=name)
            if spec["surface"]:
                world.add_surface(box)

    # Locations.
    for name, (kind, device, coords) in LOCATIONS.items():
        world.locations.define(
            name, LocationKind(kind), coords={"ur3e": coords}, device=device
        )

    # Devices.  Footprints attach the obstacle cuboids to the device
    # objects so ground-truth collision physics can exclude the entered
    # device.
    ur3e = RobotArmDevice("ur3e", UR3E, world, noise_sigma=0.0)
    dosing = SolidDosingDevice(
        "dosing_device", world, max_dose_mg=VIAL_CAPACITY_SOLID_MG,
        door_initial=DoorState.CLOSED,
    )
    pump = SyringePump("syringe_pump", world, dispense_location="hotplate_top")
    hotplate = Hotplate("hotplate", world, threshold=HOTPLATE_MAX_TEMP)
    centrifuge = Centrifuge("centrifuge", world, threshold=CENTRIFUGE_MAX_RPM)
    shaker = Thermoshaker("thermoshaker", world, threshold=SHAKER_MAX_RPM)

    def _box(name: str) -> Cuboid:
        spec = GEOMETRY[name]
        return Cuboid(tuple(spec["min"]), tuple(spec["max"]), name=name)

    world.add_device(ur3e)
    if world_geometry:
        world.add_device(dosing, footprint=_box("dosing_device"))
        world.add_device(pump, footprint=_box("syringe_pump"))
        world.add_device(hotplate, footprint=_box("hotplate"))
        world.add_device(centrifuge, footprint=_box("centrifuge"))
        world.add_device(shaker, footprint=_box("thermoshaker"))
        # The grid is a passive obstacle, not a device.
        world.add_obstacle(_box("grid"))  # passive fixture, not a device
    else:
        world.add_device(dosing)
        world.add_device(pump)
        world.add_device(hotplate)
        world.add_device(centrifuge)
        world.add_device(shaker)

    vials: Dict[str, Vial] = {}
    slots = ["grid_a1", "grid_a2"]
    for i, vial_name in enumerate(vial_names):
        vial = Vial(
            vial_name,
            capacity_solid_mg=VIAL_CAPACITY_SOLID_MG,
            capacity_liquid_ml=VIAL_CAPACITY_LIQUID_ML,
            stoppered=True,
        )
        world.add_vial(vial, at_location=slots[i] if i < len(slots) else None)
        vials[vial_name] = vial

    devices: Dict[str, Device] = {
        "ur3e": ur3e,
        "dosing_device": dosing,
        "syringe_pump": pump,
        "hotplate": hotplate,
        "centrifuge": centrifuge,
        "thermoshaker": shaker,
        **vials,
    }

    config = _hein_config(vial_names)
    model = build_model(config)
    return HeinDeck(world=world, devices=devices, vials=vials, config=config, model=model)


def _hein_config(vial_names: Tuple[str, ...]) -> Dict[str, Any]:
    """The JSON configuration document for the Hein deck (§II-C format)."""
    device_entries: List[Dict[str, Any]] = [
        {
            "name": "ur3e",
            "type": "robot_arm",
            "class": "RobotArmDevice",
            "frame": "ur3e",
            "link_radius": UR3E.link_radius,
            "gripper_clearance": RobotArmDevice.GRIPPER_CLEARANCE,
            "held_drop": RobotArmDevice.HELD_DROP,
        },
        {
            "name": "dosing_device",
            "type": "dosing_system",
            "class": "SolidDosingDevice",
            "door": {"present": True, "initial": "closed"},
            "load_location": "dosing_interior",
        },
        {
            "name": "syringe_pump",
            "type": "dosing_system",
            "class": "SyringePump",
            "dispense_location": "hotplate_top",
        },
        {
            "name": "hotplate",
            "type": "action_device",
            "class": "Hotplate",
            "threshold": HOTPLATE_MAX_TEMP,
            "load_location": "hotplate_top",
        },
        {
            "name": "centrifuge",
            "type": "action_device",
            "class": "Centrifuge",
            "threshold": CENTRIFUGE_MAX_RPM,
            "door": {"present": True, "initial": "open"},
            "load_location": "centrifuge_slot",
        },
        {
            "name": "thermoshaker",
            "type": "action_device",
            "class": "Thermoshaker",
            "threshold": SHAKER_MAX_RPM,
            "load_location": "shaker_top",
        },
    ]
    for vial_name in vial_names:
        device_entries.append(
            {
                "name": vial_name,
                "type": "container",
                "class": "Vial",
                "capacity_solid_mg": VIAL_CAPACITY_SOLID_MG,
                "capacity_liquid_ml": VIAL_CAPACITY_LIQUID_ML,
            }
        )
    return {
        "lab": "hein",
        "devices": device_entries,
        "locations": [
            {
                "name": name,
                "kind": kind,
                "device": device,
                "coords": {"ur3e": list(coords)},
            }
            for name, (kind, device, coords) in LOCATIONS.items()
        ],
        "obstacles": [
            {
                "name": name,
                "surface": spec["surface"],
                "frames": {"ur3e": {"min": list(spec["min"]), "max": list(spec["max"])}},
            }
            for name, spec in GEOMETRY.items()
        ],
        "workspace": {
            "ur3e": {"min": [-0.75, -0.75, 0.02], "max": [0.75, 0.75, 1.0]}
        },
        "custom_rules": ["C1", "C2", "C3", "C4"],
        "reliable_container_tracking": True,
    }
