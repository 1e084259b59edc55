"""Action devices: hotplates, centrifuges, shakers, coaters, nozzles.

The paper's Action Device type: "any system with 'active/inactive' states,
where the active state refers to the system performing an action, such as
heating, stirring, or shaking" (§II-A).  Each concrete device below maps a
physical hazard onto a rule in Tables III/IV:

- running with no container / an empty container wastes a run (Rules 5-6);
- an action value beyond the device threshold is dangerous (Rule 11 — the
  Hein researchers' "the temperature of the hotplate must never exceed the
  specified threshold");
- spinning the centrifuge with its lid open, without a stopper, with only
  one phase loaded, or with the rotor's red dot away from North damages the
  rotor or sprays the sample (Rules 9-10 and custom Rules 2-4).
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.devices.base import Device, DeviceKind, Door, DoorState
from repro.devices.container import Vial
from repro.devices.world import DamageEvent, DamageSeverity, LabWorld


class ActionDeviceBase(Device):
    """Common machinery for all action devices.

    ``threshold`` bounds the action value (temperature in °C, speed in rpm,
    ...).  Subclasses set ``ACTION_NAME`` and may override the physical
    consequence hooks.
    """

    kind = DeviceKind.ACTION_DEVICE
    ACTION_NAME = "action"

    def __init__(
        self,
        name: str,
        world: LabWorld,
        threshold: float,
        has_door: bool = False,
        door_initial: DoorState = DoorState.OPEN,
    ) -> None:
        super().__init__(name)
        self.world = world
        self.threshold = float(threshold)
        self.door: Optional[Door] = Door(door_initial) if has_door else None
        self._active = False
        self._action_value = 0.0

    # -- door (only for devices that have one) -----------------------------------

    def set_door(self, prop: str, state: str) -> None:
        """Drive the lid/door, with the same arm-crush physics as dosers."""
        self._record()
        if self.door is None:
            raise AttributeError(f"{self.name} has no door")
        if prop != "state":
            raise ValueError(f"unknown door property {prop!r}")
        target = DoorState(state)
        if target is DoorState.CLOSED:
            blocked = self.world.robots_inside(self.name)
            if blocked:
                self.world.record_damage(
                    DamageEvent(
                        severity=DamageSeverity.HIGH,
                        kind="door_closed_on_arm",
                        description=(
                            f"{self.name} lid closed onto robot arm(s) "
                            f"{', '.join(blocked)} still inside"
                        ),
                        involved=(self.name, *blocked),
                    )
                )
                return
        self.door.set_state(target)

    def open_door(self) -> None:
        """Open the lid/door."""
        self.set_door("state", "open")

    def close_door(self) -> None:
        """Close the lid/door."""
        self.set_door("state", "closed")

    # -- action commands -------------------------------------------------------------

    def set_action_value(self, value: float) -> None:
        """Set the action setpoint (temperature, speed, ...)."""
        self._record()
        self._action_value = float(value)
        if self._active:
            self._physical_effects()

    def start_action(self, value: Optional[float] = None) -> None:
        """Activate the device, optionally setting the setpoint first."""
        self._record()
        if value is not None:
            self._action_value = float(value)
        self._active = True
        self._physical_effects()

    def stop_action(self, delay: float = 0.0) -> None:
        """Deactivate the device."""
        self._record()
        self._active = False

    # -- physical consequences ----------------------------------------------------------

    def _loaded_vial(self) -> Optional[Vial]:
        return self.world.vial_inside_device(self.name)

    def _physical_effects(self) -> None:
        """Ground-truth consequences of running in the current state."""
        vial = self._loaded_vial()
        if vial is None:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="empty_run",
                    description=f"{self.name} ran {self.ACTION_NAME} with no container loaded",
                    involved=(self.name,),
                )
            )
        elif vial.contents.is_empty:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="empty_container_run",
                    description=(
                        f"{self.name} ran {self.ACTION_NAME} on empty vial {vial.name!r}"
                    ),
                    involved=(self.name, vial.name),
                )
            )
        if self._action_value > self.threshold:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="threshold_exceeded",
                    description=(
                        f"{self.name} {self.ACTION_NAME} value "
                        f"{self._action_value:g} exceeds safety threshold "
                        f"{self.threshold:g}"
                    ),
                    involved=(self.name,),
                )
            )
        self._extra_effects(vial)

    def _extra_effects(self, vial: Optional[Vial]) -> None:
        """Device-specific hazards; overridden by subclasses."""

    # -- observability ---------------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the device is currently performing its action."""
        return self._active

    @property
    def action_value(self) -> float:
        """Current setpoint."""
        return self._action_value

    def status(self) -> Dict[str, Any]:
        """Active flag, setpoint, and door state when a door exists."""
        report: Dict[str, Any] = {
            "active": self._active,
            "action_value": self._action_value,
        }
        if self.door is not None:
            report["door"] = self.door.state.value
        return report


class Hotplate(ActionDeviceBase):
    """IKA hotplate-stirrer; threshold is the safe temperature limit (°C)."""

    ACTION_NAME = "heating/stirring"

    def __init__(self, name: str, world: LabWorld, threshold: float = 120.0) -> None:
        super().__init__(name, world, threshold=threshold, has_door=False)

    def stir_solution(self, temperature: float) -> None:
        """Fig. 1(b)'s ``stirSolution(temperature)``."""
        self._record()
        self.start_action(temperature)


class Thermoshaker(ActionDeviceBase):
    """IKA thermoshaker; threshold is the maximum shaking speed (rpm)."""

    ACTION_NAME = "shaking"

    def __init__(self, name: str, world: LabWorld, threshold: float = 1500.0) -> None:
        super().__init__(name, world, threshold=threshold, has_door=False)

    def shake(self, speed_rpm: float) -> None:
        """Start shaking at *speed_rpm*."""
        self._record()
        self.start_action(speed_rpm)


class Centrifuge(ActionDeviceBase):
    """Benchtop centrifuge with a lid and an alignment red dot.

    The Hein Lab's custom rules (Table IV) all constrain loading this
    device: the container must hold both a solid and a liquid (Rule 2), the
    rotor's red dot must face North when loading (Rule 3), and the container
    must be stoppered (Rule 4).  Violations have ground-truth consequences
    so the evaluation can distinguish detection from prevention.
    """

    ACTION_NAME = "spinning"
    COMPASS = ("N", "E", "S", "W")

    def __init__(self, name: str, world: LabWorld, threshold: float = 6000.0) -> None:
        super().__init__(
            name, world, threshold=threshold, has_door=True, door_initial=DoorState.OPEN
        )
        self._red_dot = "N"

    @property
    def red_dot(self) -> str:
        """Compass direction the rotor's red dot currently faces."""
        return self._red_dot

    def rotate_rotor(self, direction: str) -> None:
        """Index the rotor so the red dot faces *direction* (N/E/S/W)."""
        self._record()
        if direction not in self.COMPASS:
            raise ValueError(f"invalid compass direction {direction!r}")
        self._red_dot = direction

    def _extra_effects(self, vial: Optional[Vial]) -> None:
        if not self._active:
            return
        if self.door is not None and self.door.is_open:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="open_lid_spin",
                    description=f"{self.name} spun with its lid open",
                    involved=(self.name,),
                )
            )
        if vial is None:
            return
        if not vial.stoppered:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="centrifuge_spray",
                    description=(
                        f"{self.name} spun unstoppered vial {vial.name!r}; "
                        f"contents sprayed"
                    ),
                    involved=(self.name, vial.name),
                )
            )
        if not (vial.contents.has_solid and vial.contents.has_liquid):
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="rotor_imbalance",
                    description=(
                        f"{self.name} spun single-phase vial {vial.name!r}; "
                        f"rotor imbalance"
                    ),
                    involved=(self.name, vial.name),
                )
            )

    def status(self) -> Dict[str, Any]:
        """Adds the rotor red-dot direction to the base report."""
        report = super().status()
        report["red_dot"] = self._red_dot
        return report


class Decapper(ActionDeviceBase):
    """Berlinguette Lab decapper: caps/uncaps the vial loaded in it."""

    ACTION_NAME = "capping"

    def __init__(self, name: str, world: LabWorld) -> None:
        super().__init__(name, world, threshold=1.0, has_door=False)

    def decap(self) -> None:
        """Remove the stopper from the loaded vial."""
        self._record()
        self.start_action()
        vial = self._loaded_vial()
        if vial is not None:
            vial.decap_vial()
        self.stop_action()

    def cap(self) -> None:
        """Put the stopper on the loaded vial."""
        self._record()
        self.start_action()
        vial = self._loaded_vial()
        if vial is not None:
            vial.cap_vial()
        self.stop_action()

    def _physical_effects(self) -> None:
        """Capping an absent vial merely no-ops; no damage semantics."""


class SpinCoater(ActionDeviceBase):
    """Berlinguette Lab spin coater; threshold is max spin speed (rpm)."""

    ACTION_NAME = "spin-coating"

    def __init__(self, name: str, world: LabWorld, threshold: float = 8000.0) -> None:
        super().__init__(name, world, threshold=threshold, has_door=False)


class UltrasonicNozzle(ActionDeviceBase):
    """Berlinguette Lab spray-coating nozzle; threshold is max power (W)."""

    ACTION_NAME = "spraying"

    def __init__(self, name: str, world: LabWorld, threshold: float = 50.0) -> None:
        super().__init__(name, world, threshold=threshold, has_door=False)

    def _physical_effects(self) -> None:
        # Spraying does not need a loaded container (it targets film
        # substrates), so skip the empty-run hazard; threshold still applies.
        if self._action_value > self.threshold:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="threshold_exceeded",
                    description=(
                        f"{self.name} spray power {self._action_value:g} exceeds "
                        f"threshold {self.threshold:g}"
                    ),
                    involved=(self.name,),
                )
            )


class XRFStation(ActionDeviceBase):
    """Berlinguette Lab XRF microscope, modeled as an action device with a
    shutter door (x-rays must only fire with the shutter closed)."""

    ACTION_NAME = "x-ray emission"

    def __init__(self, name: str, world: LabWorld, threshold: float = 50.0) -> None:
        super().__init__(
            name, world, threshold=threshold, has_door=True, door_initial=DoorState.CLOSED
        )

    def _physical_effects(self) -> None:
        if self.door is not None and self.door.is_open and self._active:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="radiation_exposure",
                    description=f"{self.name} emitted x-rays with the shutter open",
                    involved=(self.name,),
                )
            )
        if self._action_value > self.threshold:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.HIGH,
                    kind="threshold_exceeded",
                    description=(
                        f"{self.name} emission power {self._action_value:g} "
                        f"exceeds threshold {self.threshold:g}"
                    ),
                    involved=(self.name,),
                )
            )
