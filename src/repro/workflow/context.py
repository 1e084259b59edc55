"""Deck wiring for workflow runs: one context, every registered lab.

A workflow spec names its deck declaratively (``"deck": "testbed"``);
:func:`build_context` turns that name into the fully wired stack —
deck, monitor, tracing proxies — through each lab's ``make_*_rabit``
entry point, so a DAG run drives the interceptor/monitor pipeline
exactly like a hand-wired deck.  ``monitored=False`` wires the proxies
without a monitor (the ground-truth leg of the Monte Carlo and fuzz
sweeps, and the §II-C latency baseline).

Vial preparation is declarative too (``"prepare"`` entries), and runs
*before* the monitor attaches so seeded tracked state matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.clock import VirtualClock
from repro.core.interceptor import CommandRecord, DeviceProxy, instrument
from repro.core.monitor import Rabit, RabitOptions

__all__ = ["WorkflowContext", "DECKS", "build_context", "deck_names"]


@dataclass
class WorkflowContext:
    """Everything a workflow execution touches, fully wired."""

    deck_name: str
    deck: Any
    proxies: Dict[str, DeviceProxy]
    trace: List[CommandRecord]
    rabit: Optional[Rabit] = None
    #: Parameters the deck was built with (spec round-trip bookkeeping).
    deck_params: Dict[str, Any] = field(default_factory=dict)

    def proxy(self, name: str) -> DeviceProxy:
        """The tracing proxy for device *name* (clear error when absent)."""
        try:
            return self.proxies[name]
        except KeyError:
            raise KeyError(
                f"deck {self.deck_name!r} has no device {name!r}; "
                f"devices: {sorted(self.proxies)}"
            ) from None

    @property
    def world(self) -> Any:
        """The ground-truth world (damage log lives here)."""
        return self.deck.world


def _build_hein(params: Mapping[str, Any]) -> Any:
    from repro.lab.hein import build_hein_deck

    return build_hein_deck(**dict(params))


def _make_hein(deck: Any, options: RabitOptions, clock: Optional[VirtualClock]):
    from repro.lab.hein import make_hein_rabit

    return make_hein_rabit(deck, options=options, clock=clock)


def _build_testbed(params: Mapping[str, Any]) -> Any:
    from repro.testbed.deck import build_testbed_deck

    merged = {"noise_sigma": 0.003}
    merged.update(params)
    return build_testbed_deck(**merged)


def _make_testbed(
    deck: Any,
    options: RabitOptions,
    clock: Optional[VirtualClock],
    exclude_rules: Tuple[str, ...] = (),
):
    from repro.testbed.deck import make_testbed_rabit

    return make_testbed_rabit(
        deck, options=options, clock=clock, exclude_rules=exclude_rules
    )


def _build_two_door(params: Mapping[str, Any]) -> Any:
    from repro.lab.two_door import build_two_door_deck

    if params:
        raise ValueError(f"deck 'two_door' takes no parameters, got {sorted(params)}")
    return build_two_door_deck()


def _make_two_door(deck: Any, options: RabitOptions, clock: Optional[VirtualClock]):
    from repro.lab.two_door import make_two_door_rabit

    return make_two_door_rabit(deck, options=options, clock=clock)


def _build_berlinguette(params: Mapping[str, Any]) -> Any:
    from repro.lab.berlinguette import build_berlinguette_deck

    return build_berlinguette_deck(**dict(params))


def _make_berlinguette(deck: Any, options: RabitOptions, clock: Optional[VirtualClock]):
    from repro.lab.berlinguette import make_berlinguette_rabit

    return make_berlinguette_rabit(deck, options=options, clock=clock)


#: name -> (deck builder, monitor wiring).  The builder receives the
#: spec's ``deck_params``; the wiring is the lab's ``make_*_rabit``
#: (testbed defaults to the 0.003 actuation noise every testbed run
#: uses; only the testbed wiring takes rule exclusions).
DECKS: Dict[str, Tuple[Callable[[Mapping[str, Any]], Any], Callable[..., Any]]] = {
    "hein": (_build_hein, _make_hein),
    "testbed": (_build_testbed, _make_testbed),
    "two_door": (_build_two_door, _make_two_door),
    "berlinguette": (_build_berlinguette, _make_berlinguette),
}


def deck_names() -> List[str]:
    """Registered deck names, sorted."""
    return sorted(DECKS)


def _apply_prepare(deck: Any, prepare: Sequence[Mapping[str, Any]]) -> None:
    """Apply declarative vial preparation entries to *deck*.

    Each entry: ``{"vial": name, "solid_mg"?: float, "liquid_ml"?: float,
    "stoppered"?: bool}`` — e.g. the centrifuge leg's pre-filled,
    decapped vial.
    """
    for entry in prepare:
        entry = dict(entry)
        try:
            name = entry.pop("vial")
        except KeyError:
            raise ValueError(f"prepare entry missing 'vial': {entry!r}") from None
        try:
            vial = deck.vials[name]
        except (AttributeError, KeyError):
            raise ValueError(
                f"deck has no vial {name!r}; vials: "
                f"{sorted(getattr(deck, 'vials', {}))}"
            ) from None
        if "solid_mg" in entry:
            vial.contents.solid_mg = float(entry.pop("solid_mg"))
        if "liquid_ml" in entry:
            vial.contents.liquid_ml = float(entry.pop("liquid_ml"))
        if "stoppered" in entry:
            if not entry.pop("stoppered"):
                vial.decap_vial()
        if entry:
            raise ValueError(f"unknown prepare keys {sorted(entry)} for vial {name!r}")


def build_context(
    deck: str = "hein",
    deck_params: Optional[Mapping[str, Any]] = None,
    prepare: Sequence[Mapping[str, Any]] = (),
    options: Optional[RabitOptions] = None,
    clock: Optional[VirtualClock] = None,
    monitored: bool = True,
    exclude_rules: Sequence[str] = (),
) -> WorkflowContext:
    """Build and wire deck *deck*; returns the run-ready context.

    With ``monitored=False`` the proxies trace but never consult a
    monitor — the ground-truth configuration of the fuzz campaign and
    the §II-C latency baseline.  ``exclude_rules`` drops rules by id
    (the rule-knockout ablation; testbed deck only).
    """
    try:
        build, make = DECKS[deck]
    except KeyError:
        raise ValueError(f"unknown deck {deck!r}; known: {deck_names()}") from None
    if exclude_rules and deck != "testbed":
        raise ValueError(f"deck {deck!r} does not take rule exclusions")
    params = dict(deck_params or {})
    the_deck = build(params)
    _apply_prepare(the_deck, prepare)
    if monitored:
        wiring = {"exclude_rules": tuple(exclude_rules)} if exclude_rules else {}
        rabit, proxies, trace = make(
            the_deck, options or RabitOptions.modified(), clock, **wiring
        )
        return WorkflowContext(
            deck_name=deck,
            deck=the_deck,
            proxies=proxies,
            trace=trace,
            rabit=rabit,
            deck_params=params,
        )
    proxies, trace = instrument(the_deck.devices, rabit=None, clock=clock)
    return WorkflowContext(
        deck_name=deck,
        deck=the_deck,
        proxies=proxies,
        trace=trace,
        rabit=None,
        deck_params=params,
    )
