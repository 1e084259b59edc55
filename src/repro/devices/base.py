"""Device base classes: kinds, doors, connections, malfunction injection.

Every simulated device exposes two things RABIT relies on:

- *action commands* — ordinary methods (``open_door``, ``run_action`` ...)
  that mutate device state, mirroring the Hein Lab's Python wrapper APIs;
- a *status command* — :meth:`Device.status`, returning the device's
  **observable** state variables.  RABIT's ``FetchState()`` (Fig. 2, line 13)
  is implemented by calling this on every device.

Malfunction injection reproduces the paper's "Device malfunction!" branch
(Fig. 2, lines 14-15): a device can be told that its next command will not
take physical effect (e.g. a door motor stalls), so the post-execution
status no longer matches the expected state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Optional

from repro.obs import OBS

_OBS_DEVICE_COMMANDS = OBS.registry.counter(
    "device_commands_total",
    "Commands physically executed, by device (post-veto, ground truth).",
    labels=("device",),
)


class DeviceKind(Enum):
    """The paper's four device types (§II-A), plus the sensor category
    the discussion proposes as an extension ("sensors, which could be
    treated as a new device class", §V-B) — researchers "can also define
    ... new device categories" in the configuration (§II-C)."""

    CONTAINER = "container"
    ROBOT_ARM = "robot_arm"
    DOSING_SYSTEM = "dosing_system"
    ACTION_DEVICE = "action_device"
    SENSOR = "sensor"


class DoorState(Enum):
    """State of a software-controlled device door."""

    OPEN = "open"
    CLOSED = "closed"


class MalfunctionError(Exception):
    """Raised when a device is physically unable to carry out a command."""


@dataclass
class SimulatedConnection:
    """Stand-in for the paper's per-device connection parameters.

    RABIT "maintains a list of device connection parameters ... to fetch
    the state of all devices" (§II-C).  Here the wire is simulated: the
    connection only contributes latency, charged to a virtual clock by the
    latency experiments.  ``status_latency`` is the round-trip time of one
    status command; ``command_latency`` of one action command.
    """

    host: str = "127.0.0.1"
    port: int = 0
    status_latency: float = 0.003
    command_latency: float = 0.004

    _port_counter = itertools.count(5000)

    def __post_init__(self) -> None:
        if self.port == 0:
            self.port = next(self._port_counter)


class Door:
    """A software-controlled door on a dosing system or action device.

    The solid dosing device in the Hein Lab "has a software-controlled
    glass door; there have been instances of the door breaking because the
    programmer forgot to call open_door()" (§I, footnote 1).
    """

    def __init__(self, initial: DoorState = DoorState.CLOSED) -> None:
        self._state = initial
        self._jammed = False

    @property
    def state(self) -> DoorState:
        """Current door state."""
        return self._state

    @property
    def is_open(self) -> bool:
        """Whether the door is open."""
        return self._state is DoorState.OPEN

    def jam(self) -> None:
        """Inject a malfunction: the door stops responding to commands."""
        self._jammed = True

    def unjam(self) -> None:
        """Clear an injected jam."""
        self._jammed = False

    def set_state(self, state: DoorState) -> None:
        """Drive the door motor.  A jammed door silently stays put —
        the discrepancy is only visible through the status command,
        which is exactly what RABIT's expected-vs-actual check catches."""
        if self._jammed:
            return
        self._state = state


class Device:
    """Base class for all simulated devices.

    Subclasses register their observable state variables by overriding
    :meth:`status`, and their physical footprint by setting
    :attr:`footprint` (a cuboid in world coordinates) when placed on a deck.
    """

    kind: DeviceKind = DeviceKind.ACTION_DEVICE

    def __init__(self, name: str, connection: Optional[SimulatedConnection] = None) -> None:
        self.name = name
        self.connection = connection or SimulatedConnection()
        #: World-space cuboid this device occupies; assigned at deck layout
        #: time.  ``None`` for devices with no meaningful footprint.
        self.footprint = None  # type: Optional[Any]

    # -- observability -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Observable state variables, as reported by the device firmware.

        Only *observable* variables appear here.  Variables the paper calls
        out as unsensed (e.g. whether a gripper without a pressure sensor is
        actually holding a vial) must NOT be reported; RABIT has to carry
        them forward from postconditions, which is what makes Bug C
        undetectable.
        """
        return {}

    # -- bookkeeping -----------------------------------------------------------

    def _record(self) -> None:
        """Count one executed command (``device_commands_total``)."""
        if OBS.enabled:
            _OBS_DEVICE_COMMANDS.inc(1, device=self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({self.name!r})"
