"""Dosing systems: the solid dosing device and the automated syringe pump.

The paper's Dosing System type: "any system used for adding substances into
a container during the experiment" (§II-A).  The Hein Lab deck has two:

- a **solid dosing device** (Mettler Toledo) with a software-controlled
  glass door — the device whose door "has broken because the programmer
  forgot to call open_door()" (§I footnote);
- an **automated syringe pump** (Tecan) that doses solvent.

Physical semantics recorded as ground truth:

- dosing with no (or a stoppered/broken) vial in place wastes the material
  (Table V's *Low* severity band);
- dosing with the door open can spill (Rule 9's rationale);
- closing the door on a robot arm that is still inside smashes the door
  (Rule 2's rationale, *High* severity);
- adding liquid to a vial with no solid ruins the solubility run and
  wastes solvent (the Hein Lab's custom Rule 1).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.devices.base import Device, DeviceKind, Door, DoorState
from repro.devices.world import DamageEvent, DamageSeverity, LabWorld


class SolidDosingDevice(Device):
    """Solid dosing device with a software-controlled glass door."""

    kind = DeviceKind.DOSING_SYSTEM

    def __init__(
        self,
        name: str,
        world: LabWorld,
        max_dose_mg: float = 10.0,
        door_initial: DoorState = DoorState.CLOSED,
    ) -> None:
        super().__init__(name)
        self.world = world
        self.door = Door(door_initial)
        self.max_dose_mg = float(max_dose_mg)
        self._active = False
        self._dispensed_mg = 0.0
        #: Injected malfunction: the auger dispenses ``factor`` times the
        #: commanded amount (a drifting balance / clogged auger).  The
        #: balance readout reports the *actual* dispensed total, so the
        #: discrepancy surfaces through Fig. 2's expected-vs-actual check.
        self._calibration_factor = 1.0

    # -- door commands ---------------------------------------------------------

    def set_door(self, prop: str, state: str) -> None:
        """Drive the door; Fig. 5's ``dosing_device.set_door("state", "open")``."""
        self._record()
        if prop != "state":
            raise ValueError(f"unknown door property {prop!r}")
        target = DoorState(state)
        if target is DoorState.CLOSED:
            blocked = self.world.robots_inside(self.name)
            if blocked:
                # The door motor drives the glass door into the arm.
                self.world.record_damage(
                    DamageEvent(
                        severity=DamageSeverity.HIGH,
                        kind="door_closed_on_arm",
                        description=(
                            f"{self.name} door closed onto robot arm(s) "
                            f"{', '.join(blocked)} still inside"
                        ),
                        involved=(self.name, *blocked),
                    )
                )
                return  # door is blocked by the arm and stays open
        if target is DoorState.OPEN and self._active:
            # Rule 10's rationale: opening mid-dose lets the powder stream
            # escape the enclosure.
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="open_while_dosing",
                    description=(
                        f"{self.name} door opened while dosing was running; "
                        f"material escaped the enclosure"
                    ),
                    involved=(self.name,),
                )
            )
        self.door.set_state(target)

    def open_door(self) -> None:
        """Convenience wrapper (Fig. 1(b)'s ``open_door()``)."""
        self.set_door("state", "open")

    def close_door(self) -> None:
        """Convenience wrapper (Fig. 1(b)'s ``close_door()``)."""
        self.set_door("state", "closed")

    # -- dosing commands -----------------------------------------------------------

    def run_action(self, delay: float = 0.0, quantity: float = 0.0) -> None:
        """Start dosing *quantity* mg of solid (Fig. 5's ``run_action``)."""
        self._record()
        self._active = True
        self._dose(quantity)

    def dose_solid(self, amount_mg: float) -> None:
        """Dose solid directly (Fig. 1(b)'s ``start_dosing(amount)``)."""
        self._record()
        self._active = True
        self._dose(amount_mg)

    def stop_action(self, delay: float = 0.0) -> None:
        """Stop dosing."""
        self._record()
        self._active = False

    def miscalibrate(self, factor: float) -> None:
        """Inject a dosing malfunction: dispense ``factor`` x the command."""
        if factor <= 0:
            raise ValueError("calibration factor must be positive")
        self._calibration_factor = float(factor)

    def _dose(self, commanded_mg: float) -> None:
        amount_mg = commanded_mg * self._calibration_factor
        vial = self.world.vial_inside_device(self.name)
        self._dispensed_mg += amount_mg
        if self.door.is_open:
            # Rule 9's rationale: dosing with the enclosure open lets fine
            # powder drift out (wasted material, contaminated deck).
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="open_door_dose",
                    description=(
                        f"{self.name} dosed {amount_mg:g} mg with its door "
                        f"open; powder drifted out of the enclosure"
                    ),
                    involved=(self.name,),
                )
            )
        if vial is None:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solid_spill",
                    description=(
                        f"{self.name} dispensed {amount_mg} mg with no vial in "
                        f"place; material wasted"
                    ),
                    involved=(self.name,),
                )
            )
            return
        kept = vial.add_solid(amount_mg)
        wasted = amount_mg - kept
        if wasted > 1e-9:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solid_spill",
                    description=(
                        f"{self.name}: {wasted:.1f} mg of {amount_mg} mg missed or "
                        f"overflowed vial {vial.name!r}"
                    ),
                    involved=(self.name, vial.name),
                )
            )

    # -- observability -----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the doser is currently running."""
        return self._active

    def status(self) -> Dict[str, Any]:
        """Door state, running flag, and the balance's dispensed total."""
        return {
            "door": self.door.state.value,
            "active": self._active,
            "dispensed_mg": round(self._dispensed_mg, 6),
        }


class SyringePump(Device):
    """Automated syringe pump dosing solvent at a fixed dispense location."""

    kind = DeviceKind.DOSING_SYSTEM

    def __init__(
        self,
        name: str,
        world: LabWorld,
        dispense_location: str,
        max_volume_ml: float = 20.0,
    ) -> None:
        super().__init__(name)
        self.world = world
        #: Name of the deck location under the pump's needle.
        self.dispense_location = dispense_location
        self.max_volume_ml = float(max_volume_ml)
        self._active = False
        self._dispensed_ml = 0.0

    def dose_initial_solvent(self, volume_ml: float) -> None:
        """Dose the first solvent aliquot (Fig. 1(b) line 6)."""
        self._record()
        self._dose(volume_ml)

    def dose_solvent(self, volume_ml: float) -> None:
        """Dose a follow-up solvent aliquot (Fig. 1(b) line 12)."""
        self._record()
        self._dose(volume_ml)

    def stop(self) -> None:
        """Abort dispensing."""
        self._record()
        self._active = False

    def _dose(self, volume_ml: float) -> None:
        self._active = True
        self._dispensed_ml += volume_ml
        occupant = self.world.occupant(self.dispense_location)
        if occupant is None:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solvent_spill",
                    description=(
                        f"{self.name} dispensed {volume_ml} mL onto an empty "
                        f"{self.dispense_location!r}"
                    ),
                    involved=(self.name,),
                )
            )
            self._active = False
            return
        vial = self.world.vial(occupant)
        if not vial.contents.has_solid:
            # Hein custom Rule 1's rationale: solvent into a solid-less vial
            # ruins the solubility measurement and wastes the solvent.
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="wasted_chemicals",
                    description=(
                        f"{self.name} dosed {volume_ml} mL into vial "
                        f"{vial.name!r} which contains no solid"
                    ),
                    involved=(self.name, vial.name),
                )
            )
        kept = vial.add_liquid(volume_ml)
        wasted = volume_ml - kept
        if wasted > 1e-9:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solvent_spill",
                    description=(
                        f"{self.name}: {wasted:.1f} mL of {volume_ml} mL missed or "
                        f"overflowed vial {vial.name!r}"
                    ),
                    involved=(self.name, vial.name),
                )
            )
        self._active = False

    @property
    def active(self) -> bool:
        """Whether the pump is mid-dispense."""
        return self._active

    def status(self) -> Dict[str, Any]:
        """Running flag and total dispensed volume."""
        return {"active": self._active, "dispensed_ml": round(self._dispensed_ml, 6)}
