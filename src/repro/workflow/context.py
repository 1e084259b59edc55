"""Deck wiring for workflow runs: one context, every registered lab.

A workflow spec names its deck declaratively (``"deck": "testbed"``);
:func:`build_context` turns that name into the fully wired stack —
deck, monitor, tracing proxies — through the deck registry and
:func:`~repro.lab.decks.make_rabit`, so a DAG run drives the
interceptor/monitor pipeline exactly like a hand-wired deck.
``monitored=False`` wires the proxies without a monitor (the
ground-truth leg of the Monte Carlo and fuzz sweeps, and the §II-C
latency baseline).

Vial preparation is declarative too (``"prepare"`` entries), and runs
*before* the monitor attaches so seeded tracked state matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.core.clock import VirtualClock
from repro.core.interceptor import CommandRecord, DeviceProxy, instrument
from repro.core.monitor import Rabit, RabitOptions
from repro.core.rulebase import build_default_rulebase
from repro.lab.decks import build_deck, make_rabit

__all__ = ["WorkflowContext", "build_context"]


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

    *deck_params* are the deck builder's keyword arguments; an unknown
    deck or parameter raises :class:`ValueError`.  With
    ``monitored=False`` the proxies trace but never consult a monitor —
    the ground-truth configuration of the fuzz campaign and the §II-C
    latency baseline.  ``exclude_rules`` drops rules by id (the
    rule-knockout ablation).
    """
    params = dict(deck_params or {})
    the_deck = build_deck(deck, params)
    _apply_prepare(the_deck, prepare)
    rabit: Optional[Rabit] = None
    if monitored:
        rulebase = None
        if exclude_rules:
            rulebase = build_default_rulebase(
                the_deck.model.custom_rule_ids, exclude=tuple(exclude_rules)
            )
        rabit, proxies, trace = make_rabit(the_deck, options, clock, rulebase)
    else:
        proxies, trace = instrument(the_deck.devices, rabit=None, clock=clock)
    return WorkflowContext(
        deck_name=deck,
        deck=the_deck,
        proxies=proxies,
        trace=trace,
        rabit=rabit,
        deck_params=params,
    )
