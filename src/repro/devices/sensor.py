"""Proximity sensors — the §V-B extension device class.

The Berlinguette Lab personnel "used sensors earlier, but due to the
possibility of frequent false alarms and malfunction, they do not use
them anymore", and the paper suggests that "by incorporating sensors,
which could be treated as a new device class, one could imagine
enhancing RABIT to respond to sensor inputs that indicate a robot arm is
approaching the area that is occupied".

:class:`ProximitySensor` is that new device class: it watches a 3D zone
(one cuboid per robot frame, like every other RABIT shape) and reports a
single observable bit — whether the zone is occupied (by a person,
typically).  The companion rule lives in
:mod:`repro.core.sensor_rule`; the paper's four device types are
untouched, demonstrating the config's "new device categories" hook.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.devices.base import Device, DeviceKind
from repro.geometry.shapes import Cuboid


class ProximitySensor(Device):
    """A zone-occupancy sensor (e.g. a light curtain or 3D camera).

    ``zones`` maps robot-frame names to the watched cuboid expressed in
    that frame — the same per-frame convention the rest of RABIT uses.
    Ground truth toggles occupancy via :meth:`person_enters` /
    :meth:`person_leaves`; RABIT only ever sees the status bit.
    """

    # Sensors are the paper's suggested *fifth* device category; reuse the
    # enum's extension point rather than redefining the four types.
    kind = DeviceKind.SENSOR

    def __init__(self, name: str, zones: Dict[str, Cuboid]) -> None:
        super().__init__(name)
        if not zones:
            raise ValueError("a proximity sensor needs at least one zone cuboid")
        self.zones = dict(zones)
        self._occupied = False
        #: Injected malfunction: a flaky sensor reports occupancy noise —
        #: the false-alarm failure mode that made the Berlinguette Lab
        #: abandon its sensors.
        self._stuck_reading: Optional[bool] = None

    # -- ground truth ---------------------------------------------------------

    def person_enters(self) -> None:
        """Someone steps into the watched zone."""
        self._record()
        self._occupied = True

    def person_leaves(self) -> None:
        """The zone is vacated."""
        self._record()
        self._occupied = False

    @property
    def occupied(self) -> bool:
        """Ground-truth occupancy."""
        return self._occupied

    # -- malfunction injection ---------------------------------------------------

    def stick_reading(self, value: Optional[bool]) -> None:
        """Force the sensor to report *value* regardless of ground truth
        (``None`` clears the fault)."""
        self._stuck_reading = value

    # -- observability --------------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The single observable bit RABIT polls."""
        reading = self._occupied if self._stuck_reading is None else self._stuck_reading
        return {"occupied": reading}
