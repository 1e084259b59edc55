"""One deck registry and one RABIT wiring for every lab.

:data:`DECKS` names every deck a workflow spec, a scenario, the guard
service or ``python -m repro render`` can ask for; :func:`build_deck`
builds one, passing the caller's ``params`` to the builder as keyword
arguments.  :func:`make_rabit` wires RABIT onto any built deck the same
way: monitor, Extended Simulator over every robot arm, the seeded vial
inventory, and tracing proxies.  Porting RABIT to another lab is then a
deck builder plus one registry row, as the paper's Berlinguette visit
found: the general rulebase applies unchanged.

Builders import their deck module on first use, so naming a deck here
loads no deck code.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.clock import VirtualClock
from repro.core.interceptor import CommandRecord, DeviceProxy, instrument
from repro.core.monitor import Rabit, RabitOptions
from repro.core.rulebase import RuleBase
from repro.devices.robot import RobotArmDevice
from repro.simulator.extended import ExtendedSimulator

__all__ = ["DECKS", "build_deck", "make_rabit"]


def _lazy(module: str, function: str, **defaults: Any) -> Callable[..., Any]:
    """A builder that imports ``module.function`` when first called.

    *defaults* are keyword arguments the caller's params may override.
    Unknown params raise :class:`ValueError` before the deck is built.
    """

    def build(**params: Any) -> Any:
        builder = getattr(importlib.import_module(module), function)
        if params:
            accepted = inspect.signature(builder).parameters
            unknown = sorted(set(params) - set(accepted))
            if unknown:
                raise ValueError(
                    f"unknown deck parameter(s) {unknown} for {function}; "
                    f"accepted: {sorted(accepted)}"
                )
        return builder(**{**defaults, **params})

    return build


#: Deck name -> builder.  ``hein_lean`` is the Hein deck without
#: ground-truth world geometry: the guard benchmark's stand-in for a
#: remote lab whose physics live across an I/O boundary (verdicts are
#: unchanged, since RABIT only reads the config model).  ``testbed``
#: defaults to the 0.003 actuation noise every testbed run uses.
DECKS: Dict[str, Callable[..., Any]] = {
    "hein": _lazy("repro.lab.hein", "build_hein_deck"),
    "hein_lean": _lazy("repro.lab.hein", "build_hein_deck", world_geometry=False),
    "testbed": _lazy("repro.testbed.deck", "build_testbed_deck", noise_sigma=0.003),
    "two_door": _lazy("repro.lab.two_door", "build_two_door_deck"),
    "berlinguette": _lazy("repro.lab.berlinguette", "build_berlinguette_deck"),
}


def build_deck(name: str, params: Optional[Mapping[str, Any]] = None) -> Any:
    """Build deck *name*; *params* are the builder's keyword arguments.

    Raises :class:`ValueError` for an unknown deck or parameter.
    """
    try:
        builder = DECKS[name]
    except KeyError:
        raise ValueError(f"unknown deck {name!r}; known: {', '.join(DECKS)}") from None
    return builder(**dict(params or {}))


def make_rabit(
    deck: Any,
    options: Optional[RabitOptions] = None,
    clock: Optional[VirtualClock] = None,
    rulebase: Optional[RuleBase] = None,
) -> Tuple[Rabit, Dict[str, DeviceProxy], List[CommandRecord]]:
    """Wire RABIT onto *deck*: monitor, simulator, tracing proxies.

    With ``use_extended_simulator`` the Extended Simulator sweeps every
    robot arm on the deck, in deck order.  Seeds the tracked initial
    inventory (which vial starts where, and what it holds) the way the
    lab researcher does at experiment start.  Pass *rulebase* to supply
    a prebuilt rulebase (a tenant overlay, a rule knockout); sessions
    sharing one instance also share its memoized compiled snapshot.
    """
    opts = options or RabitOptions.modified()
    checker = None
    if opts.use_extended_simulator:
        checker = ExtendedSimulator(
            {
                name: device
                for name, device in deck.devices.items()
                if isinstance(device, RobotArmDevice)
            }
        )
    rabit = Rabit(
        model=deck.model,
        devices=deck.devices,
        options=opts,
        rulebase=rulebase,
        trajectory_checker=checker,
        clock=clock,
    )
    for vial_name, vial in deck.vials.items():
        if vial.resting_at is not None:
            rabit.seed_tracked("container_at", vial_name, vial.resting_at)
        # The researcher declares the starting inventory; we read it off
        # the (correctly prepared) deck, like the lab does at setup time.
        rabit.seed_tracked("container_solid", vial_name, vial.contents.solid_mg)
        rabit.seed_tracked("container_liquid", vial_name, vial.contents.liquid_ml)
    rabit.initialize()
    proxies, trace = instrument(deck.devices, rabit, clock=rabit.clock)
    return rabit, proxies, trace
