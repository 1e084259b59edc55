"""The per-session verdict journal — the serve differential witness.

A session journals each guarded command as :func:`journal_entry`'s
projection of the interceptor's
:class:`~repro.core.interceptor.CommandRecord` onto the wire fields:
sequence number, device/method/label/location, the virtual time after
the command, the alert (if any), and the rule-verdict-cache disposition.
:func:`run_inprocess_journal` drives the same script through a deck's
:class:`~repro.core.interceptor.DeviceProxy` objects — the in-process
path — and projects their records the same way, so "service and
in-process agree" reduces to byte equality of two
:func:`~repro.trace.canon.canonical_bytes` renderings, at any load: the
service sweeps every command in full, so no record carries a caveat.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import SafetyViolation
from repro.core.interceptor import CommandRecord
from repro.core.monitor import RabitOptions
from repro.lab.decks import build_deck, make_rabit

__all__ = ["journal_entry", "run_inprocess_journal"]


def journal_entry(seq: int, record: CommandRecord) -> Dict[str, Any]:
    """The journal fields of one guarded command (plain JSON types only)."""
    alert = record.alert
    return {
        "seq": seq,
        "device": record.device,
        "method": record.method,
        "label": record.label.value if record.label is not None else None,
        "location": record.location,
        "t": record.time,
        "alert": (
            {
                "kind": alert.kind.value,
                "message": alert.message,
                "rule_id": alert.rule_id,
            }
            if alert is not None
            else None
        ),
        "rule_cache": record.rule_cache,
    }


def run_inprocess_journal(
    deck_name: str,
    commands: Sequence[Dict[str, Any]],
    deck_params: Optional[Dict[str, Any]] = None,
    options: Optional[RabitOptions] = None,
) -> List[Dict[str, Any]]:
    """Run *commands* through the deck's tracing proxies; their journal.

    Builds the deck and monitor a :class:`GuardSession` would (same
    registry, same options, same seeding) and calls each command on its
    :class:`DeviceProxy` — the single-session in-process reference the
    service journal must match byte-for-byte.  Unmodeled methods pass
    through unjournaled, as they do in the service.
    """
    from repro.serve.session import default_serve_options

    deck = build_deck(deck_name, deck_params)
    _rabit, proxies, trace = make_rabit(deck, options or default_serve_options())
    for command in commands:
        method = getattr(proxies[command["device"]], command["method"])
        try:
            method(*command.get("args", ()), **command.get("kwargs", {}))
        except SafetyViolation:
            pass  # preemptive-stop options: the proxy journaled the alert
    return [journal_entry(seq, record) for seq, record in enumerate(trace)]
