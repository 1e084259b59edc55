"""Containers — vials, their contents, and stoppers.

The paper's Container type: "any object that can contain a substance
(solid, liquid etc.) and typically has a stopper through which the
substance goes in or out" (§II-A).  The Hein Lab's custom rules (Table IV)
are all about container contents: solids before liquids, both phases
present before centrifuging, stoppers on before spinning.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional

from repro.devices.base import Device, DeviceKind


class Substance(Enum):
    """Phase of a dosed substance."""

    SOLID = "solid"
    LIQUID = "liquid"


@dataclass
class Contents:
    """What a container currently holds.

    ``solid_mg`` and ``liquid_ml`` are ground-truth amounts; ``spilled_mg``
    accumulates material that missed or overflowed the container (a
    low-severity "wasting chemical materials" outcome in Table V).
    """

    solid_mg: float = 0.0
    liquid_ml: float = 0.0
    spilled_mg: float = 0.0

    @property
    def is_empty(self) -> bool:
        """No solid and no liquid present."""
        return self.solid_mg <= 0.0 and self.liquid_ml <= 0.0

    @property
    def has_solid(self) -> bool:
        """Any solid present."""
        return self.solid_mg > 0.0

    @property
    def has_liquid(self) -> bool:
        """Any liquid present."""
        return self.liquid_ml > 0.0


class Vial(Device):
    """A capped glass vial.

    Modeled as a device (the paper's Container type) so that it can appear
    in the JSON configuration, carry a stopper state variable, and expose
    cap/decap commands (``vial.decap_vial()`` in the Fig. 5 workflow).

    A vial's *contents are not observable*: no sensor in the deck reports
    what is inside a vial, so :meth:`status` exposes only the stopper,
    which the decapper hardware can report.  RABIT tracks contents purely
    through dosing-command postconditions.
    """

    kind = DeviceKind.CONTAINER

    def __init__(
        self,
        name: str,
        capacity_solid_mg: float = 10.0,
        capacity_liquid_ml: float = 20.0,
        stoppered: bool = True,
    ) -> None:
        super().__init__(name)
        self.capacity_solid_mg = float(capacity_solid_mg)
        self.capacity_liquid_ml = float(capacity_liquid_ml)
        self.contents = Contents()
        self._stoppered = stoppered
        self._broken = False
        #: Name of the location or device interior where the vial currently
        #: rests; ``None`` while held by a gripper.  Maintained by LabWorld.
        self.resting_at: Optional[str] = None

    # -- stopper commands ------------------------------------------------------

    @property
    def stoppered(self) -> bool:
        """Whether the stopper (cap) is on."""
        return self._stoppered

    def cap_vial(self) -> None:
        """Put the stopper on."""
        self._record()
        self._stoppered = True

    def decap_vial(self) -> None:
        """Take the stopper off."""
        self._record()
        self._stoppered = False

    # -- physical effects --------------------------------------------------------

    @property
    def broken(self) -> bool:
        """Whether the glass has been broken (dropped, crushed...)."""
        return self._broken

    def shatter(self) -> None:
        """Break the vial; its contents are lost (they count as spilled)."""
        self._broken = True
        self.contents.spilled_mg += self.contents.solid_mg
        self.contents.solid_mg = 0.0
        self.contents.liquid_ml = 0.0

    def add_solid(self, amount_mg: float) -> float:
        """Dose *amount_mg* of solid into the vial.

        Dosing through a stopper is physically impossible: everything
        bounces off and is wasted.  Overfilling spills the excess.  Returns
        the amount actually retained.
        """
        if amount_mg < 0:
            raise ValueError("cannot dose a negative amount")
        if self._stoppered or self._broken:
            self.contents.spilled_mg += amount_mg
            return 0.0
        space = self.capacity_solid_mg - self.contents.solid_mg
        kept = min(amount_mg, max(space, 0.0))
        self.contents.solid_mg += kept
        self.contents.spilled_mg += amount_mg - kept
        return kept

    def add_liquid(self, volume_ml: float) -> float:
        """Dose *volume_ml* of liquid into the vial (same spill semantics)."""
        if volume_ml < 0:
            raise ValueError("cannot dose a negative volume")
        if self._stoppered or self._broken:
            self.contents.spilled_mg += volume_ml
            return 0.0
        space = self.capacity_liquid_ml - self.contents.liquid_ml
        kept = min(volume_ml, max(space, 0.0))
        self.contents.liquid_ml += kept
        self.contents.spilled_mg += volume_ml - kept
        return kept

    # -- observability -------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Only the stopper is observable (reported by the decapper)."""
        return {"stopper": "on" if self._stoppered else "off"}
