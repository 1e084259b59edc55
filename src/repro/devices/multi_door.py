"""Multi-door devices — the §V-C open challenge, implemented.

"Devices might have multiple doors, for instance, for two robot arms to
approach the device simultaneously.  In its current state, RABIT does
not handle this."

:class:`MultiDoorDosingDevice` is a dosing device with *named* doors
(e.g. ``front`` and ``back``), one per approach side.  The rest of the
stack handles it through a compound-key convention:

- each door's observable state reports as the status key
  ``door:<name>`` and lands in the ``door_status`` state variable under
  the key ``"<device>:<name>"``;
- interior locations carry ``via_door`` naming the door that guards them,
  and rule G1 checks exactly that door;
- rules G9/G10 require **all** of a device's doors closed while it runs.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.devices.base import Device, DeviceKind, Door, DoorState
from repro.devices.world import DamageEvent, DamageSeverity, LabWorld


class MultiDoorDosingDevice(Device):
    """A solid dosing device with one software-controlled door per side."""

    kind = DeviceKind.DOSING_SYSTEM

    def __init__(
        self,
        name: str,
        world: LabWorld,
        door_names: Sequence[str] = ("front", "back"),
        max_dose_mg: float = 10.0,
        door_initial: DoorState = DoorState.CLOSED,
    ) -> None:
        super().__init__(name)
        if not door_names:
            raise ValueError("a multi-door device needs at least one door name")
        self.world = world
        self.max_dose_mg = float(max_dose_mg)
        self.doors: Dict[str, Door] = {n: Door(door_initial) for n in door_names}
        self._active = False
        self._dispensed_mg = 0.0

    # -- door commands ---------------------------------------------------------

    def door_for(self, door_name: Optional[str]) -> Door:
        """The named door (or the first door when unnamed)."""
        if door_name is None:
            return next(iter(self.doors.values()))
        try:
            return self.doors[door_name]
        except KeyError:
            raise KeyError(
                f"{self.name} has no door {door_name!r}; doors: {sorted(self.doors)}"
            ) from None

    def set_door(self, door_name: str, state: str) -> None:
        """Drive one named door, with the arm-crush interlock physics."""
        self._record()
        door = self.door_for(door_name)
        target = DoorState(state)
        if target is DoorState.CLOSED:
            blocked = [
                robot
                for robot in self.world.robots_inside(self.name)
                if self.world.robot_entry_door(robot) in (door_name, None)
            ]
            if blocked:
                self.world.record_damage(
                    DamageEvent(
                        severity=DamageSeverity.HIGH,
                        kind="door_closed_on_arm",
                        description=(
                            f"{self.name} door {door_name!r} closed onto robot "
                            f"arm(s) {', '.join(blocked)} still inside"
                        ),
                        involved=(self.name, *blocked),
                    )
                )
                return
        door.set_state(target)

    def open_door(self, door_name: str) -> None:
        """Open one named door."""
        self.set_door(door_name, "open")

    def close_door(self, door_name: str) -> None:
        """Close one named door."""
        self.set_door(door_name, "closed")

    # -- dosing ---------------------------------------------------------------------

    def dose_solid(self, amount_mg: float) -> None:
        """Dose solid into the loaded vial (same semantics as the
        single-door device; physically requires all doors shut to avoid
        spills, which rule G9 enforces preemptively)."""
        self._record()
        self._active = True
        vial = self.world.vial_inside_device(self.name)
        self._dispensed_mg += amount_mg
        open_doors = [n for n, d in self.doors.items() if d.is_open]
        if open_doors:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="open_door_dose",
                    description=(
                        f"{self.name} dosed with door(s) "
                        f"{', '.join(open_doors)} open; powder drifted out"
                    ),
                    involved=(self.name,),
                )
            )
        if vial is None:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solid_spill",
                    description=f"{self.name} dispensed {amount_mg} mg with no vial in place",
                    involved=(self.name,),
                )
            )
            return
        kept = vial.add_solid(amount_mg)
        if amount_mg - kept > 1e-9:
            self.world.record_damage(
                DamageEvent(
                    severity=DamageSeverity.LOW,
                    kind="solid_spill",
                    description=(
                        f"{self.name}: {amount_mg - kept:.1f} mg missed or "
                        f"overflowed vial {vial.name!r}"
                    ),
                    involved=(self.name, vial.name),
                )
            )

    def stop_action(self, delay: float = 0.0) -> None:
        """Stop dosing."""
        self._record()
        self._active = False

    # -- observability ----------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether the doser is running."""
        return self._active

    def status(self) -> Dict[str, Any]:
        """Per-door states (compound keys) plus the usual dosing report."""
        report: Dict[str, Any] = {
            "active": self._active,
            "dispensed_mg": round(self._dispensed_mg, 6),
        }
        for door_name, door in self.doors.items():
            report[f"door:{door_name}"] = door.state.value
        return report
