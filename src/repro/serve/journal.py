"""The per-session verdict journal — the serve differential witness.

Every guarded command a session processes appends one JSON-safe record:
sequence number, device/method/label/location, the virtual time after
the command, the alert (if any), and the rule-verdict-cache
disposition.  The same builder is used by the service session and by
:func:`run_inprocess_journal`, which replays a command script through
the classic synchronous :meth:`Rabit.guard` path — so "service and
in-process agree" reduces to byte equality of two
:func:`~repro.trace.canon.canonical_bytes` renderings, at any load: the
service sweeps every command in full, so no record carries a caveat.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import Alert, SafetyViolation
from repro.core.interceptor import BASELINE_DURATION, resolve_action
from repro.core.monitor import Rabit, RabitOptions

__all__ = ["journal_record", "run_inprocess_journal", "cache_disposition"]


def journal_record(
    seq: int,
    device: str,
    method: str,
    label: Optional[Any],
    location: Optional[str],
    t: float,
    alert: Optional[Alert],
    rule_cache: str,
) -> Dict[str, Any]:
    """One canonical journal entry (plain JSON types only)."""
    return {
        "seq": seq,
        "device": device,
        "method": method,
        "label": label.value if label is not None else None,
        "location": location,
        "t": t,
        "alert": (
            {
                "kind": alert.kind.value,
                "message": alert.message,
                "rule_id": alert.rule_id,
            }
            if alert is not None
            else None
        ),
        "rule_cache": rule_cache,
    }


def cache_disposition(rabit: Rabit, hits_before: int, misses_before: int) -> str:
    """How the rule-verdict cache answered the command just guarded."""
    cache = rabit.rule_cache
    if cache is None:
        return "disabled"
    if cache.hits > hits_before:
        return "hit"
    if cache.misses > misses_before:
        return "miss"
    return "none"


def run_inprocess_journal(
    deck_name: str,
    commands: Sequence[Dict[str, Any]],
    deck_params: Optional[Dict[str, Any]] = None,
    options: Optional[RabitOptions] = None,
) -> List[Dict[str, Any]]:
    """Replay *commands* through the classic synchronous guard path.

    Builds the same deck/monitor a :class:`GuardSession` would (same
    options, same seeding, same clock charges) and guards each command
    with :meth:`Rabit.guard` — the single-session in-process reference
    the service journal must match byte-for-byte.
    """
    from repro.serve.session import build_guarded_deck, default_serve_options

    opts = options or default_serve_options()
    deck, rabit = build_guarded_deck(deck_name, deck_params or {}, None, opts)
    journal: List[Dict[str, Any]] = []
    for command in commands:
        device = deck.devices[command["device"]]
        method = command["method"]
        args = tuple(command.get("args", ()))
        kwargs = dict(command.get("kwargs", {}))
        attr = getattr(device, method)
        call = resolve_action(device, method, args, kwargs)
        if call is None:
            attr(*args, **kwargs)  # unmodeled: pass through, unjournaled
            continue
        rabit.clock.advance(
            device.connection.command_latency + BASELINE_DURATION.get(call.label, 1.0),
            "experiment",
        )
        cache = rabit.rule_cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        before = rabit.alert_count
        alert: Optional[Alert] = None
        try:
            rabit.guard(call, lambda: attr(*args, **kwargs))
            if rabit.alert_count > before:
                alert = rabit.last_alert()
        except SafetyViolation as violation:
            alert = violation.alert
        journal.append(
            journal_record(
                seq=len(journal),
                device=device.name,
                method=method,
                label=call.label,
                location=call.location,
                t=rabit.clock.now,
                alert=alert,
                rule_cache=cache_disposition(rabit, hits_before, misses_before),
            )
        )
    return journal
