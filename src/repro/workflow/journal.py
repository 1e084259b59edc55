"""The workflow journal: a canonical, comparable record of one run.

A journal is the JSON-safe rendering of everything a workflow run did —
the full intercepted command stream (time, device, method, positional
args, action label, resolved location, alert), the executed node/line
ids, and the outcome footer.  Serialized through the shared
:mod:`repro.trace.canon` witness, two runs did the same thing iff their
journal bytes agree.

This is the equality witness of the preset tests (each preset's journal
digest is pinned) and of the export→load→run round-trip: both legs
render through the same functions, so the comparison is exact, not
structural.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.errors import Alert
from repro.core.interceptor import CommandRecord

__all__ = [
    "JOURNAL_SCHEMA",
    "command_entry",
    "run_journal",
    "journal_bytes",
    "journal_digest",
]

#: Journal schema identifier (bumped on any shape change).
JOURNAL_SCHEMA = "repro.workflow-journal/v1"


def _jsonify(value: Any) -> Any:
    """JSON-safe rendering of a command argument (tuples become lists;
    numpy scalars collapse to Python numbers via their dunder ints/floats)."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)
    if hasattr(value, "item"):  # numpy scalar
        return _jsonify(value.item())
    return str(value)


def _alert_entry(alert: Optional[Alert]) -> Optional[Dict[str, Any]]:
    if alert is None:
        return None
    return {
        "kind": alert.kind.value,
        "message": alert.message,
        "command": alert.command,
        "rule_id": alert.rule_id,
        "involved": list(alert.involved),
    }


def command_entry(record: CommandRecord) -> Dict[str, Any]:
    """One trace line as a JSON-safe dict."""
    return {
        "t": float(record.time),
        "device": record.device,
        "method": record.method,
        "args": _jsonify(record.args),
        "label": record.label.value if record.label is not None else None,
        "location": record.location,
        "alert": _alert_entry(record.alert),
    }


def run_journal(
    records: Sequence[CommandRecord],
    executed: Sequence[str],
    completed: bool,
    alert: Optional[Alert] = None,
    device_error: Optional[str] = None,
    recovered: bool = False,
) -> Dict[str, Any]:
    """The full journal dict for one run."""
    return {
        "schema": JOURNAL_SCHEMA,
        "commands": [command_entry(r) for r in records],
        "executed": list(executed),
        "completed": completed,
        "alert": _alert_entry(alert),
        "device_error": device_error,
        "recovered": recovered,
    }


def journal_bytes(journal: Dict[str, Any]) -> bytes:
    """Canonical bytes — the byte-equality witness."""
    from repro.trace.canon import canonical_bytes

    return canonical_bytes(journal)


def journal_digest(journal: Dict[str, Any]) -> str:
    """Short content digest of the canonical journal bytes."""
    from repro.trace.canon import content_digest

    return content_digest(journal)
