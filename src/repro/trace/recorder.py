"""Run traces: the projection of a run's command records.

The interceptor keeps one :class:`~repro.core.interceptor.CommandRecord`
per intercepted command, and the record carries every fact the guard
produced: the command itself (device, method, arguments, resolved
label/location, virtual-clock timestamp, alert), the rule-verdict
cache disposition and dispatch, the Extended Simulator's sweep, the lab
state before and after, and the enclosing observability span id.  A
run trace is those records projected one by one with
:func:`trace_event` — the only place a state delta and a state
fingerprint are computed — between a header naming the workload and a
footer with its outcome (:func:`run_trace`).

Everything recorded is a deterministic function of the workload: virtual
time instead of wall time, content digests instead of object ids, and a
trace id derived from the workload identity rather than any clock — so
recording the same workload twice produces byte-identical traces, which
is the invariant replay asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.trace.canon import canonical_bytes, content_digest
from repro.trace.schema import SCHEMA_VERSION, upgrade_trace

__all__ = ["RunTrace", "TraceFormatError", "run_trace", "trace_event"]


class TraceFormatError(Exception):
    """A persisted trace file is corrupt, truncated, or malformed."""


def _jsonable(value: Any) -> Any:
    """Coerce one command argument into a canonical-JSON-safe value.

    Tuples/lists recurse (coordinate triples are the common case);
    anything beyond JSON scalars falls back to ``repr`` so the trace
    stays serializable without guessing at domain objects."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if value == value and abs(value) != float("inf") else repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


@dataclass
class RunTrace:
    """One recorded run: header, per-command events, closing footer."""

    header: Dict[str, Any]
    events: List[Dict[str, Any]] = field(default_factory=list)
    footer: Dict[str, Any] = field(default_factory=dict)

    @property
    def trace_id(self) -> str:
        """The deterministic, content-derived trace identifier."""
        return self.header["trace_id"]

    @property
    def schema_version(self) -> int:
        """Schema version the trace currently conforms to."""
        return self.header["schema_version"]

    def canonical_bytes(self) -> bytes:
        """Canonical serialization of the full verdict/state stream.

        The replay equality witness: two runs agree iff these bytes
        agree.  Covers the header (workload identity), every event
        (commands, verdicts, deltas, timestamps, span ids), and the
        footer (outcome, final virtual time)."""
        return canonical_bytes(
            {"header": self.header, "events": self.events, "footer": self.footer}
        )

    # -- persistence -------------------------------------------------------

    def write_jsonl(self, path: Any) -> int:
        """Write the trace as JSONL (header, events..., footer); returns
        the number of lines written."""
        lines = [self.header, *self.events, self.footer]
        with open(path, "w", encoding="ascii") as fh:
            for doc in lines:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return len(lines)

    @classmethod
    def read_jsonl(cls, path: Any) -> "RunTrace":
        """Load and schema-migrate a persisted trace.

        Raises :class:`TraceFormatError` on corrupt JSON, a missing
        header, or a truncated stream (no footer / event-count
        mismatch), and :class:`UnknownSchemaVersionError` via the
        schema hook for versions this build cannot read."""
        docs: List[dict] = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceFormatError(
                        f"{path}: line {lineno} is not valid JSON ({exc.msg})"
                    ) from None
                if not isinstance(doc, dict):
                    raise TraceFormatError(
                        f"{path}: line {lineno} is not a JSON object"
                    )
                docs.append(doc)
        if not docs or docs[0].get("type") != "header":
            raise TraceFormatError(f"{path}: missing trace header line")
        header, body = docs[0], docs[1:]
        # Schema migration runs before structural checks: the footer
        # contract itself is part of every known schema version.
        header, body = upgrade_trace(header, body)
        if not body or body[-1].get("type") != "end":
            raise TraceFormatError(
                f"{path}: truncated trace (no closing 'end' record)"
            )
        footer, events = body[-1], body[:-1]
        if any(e.get("type") != "command" for e in events):
            raise TraceFormatError(f"{path}: unexpected record type in event stream")
        declared = footer.get("events")
        if declared != len(events):
            raise TraceFormatError(
                f"{path}: truncated trace (footer declares {declared} events, "
                f"found {len(events)})"
            )
        return cls(header=header, events=events, footer=footer)


def _trace_id(workload: str, params: Dict[str, Any], obs: bool) -> str:
    """Deterministic trace id from the workload identity alone.

    Deliberately independent of the schema version, so a migrated trace
    keeps its id and replay's byte comparison still passes."""
    return "t-" + content_digest(
        {"workload": workload, "params": params, "obs": obs}
    )


def trace_event(seq: int, record: Any) -> Dict[str, Any]:
    """The trace event of one :class:`~repro.core.interceptor.CommandRecord`.

    *seq* is the record's position in the run.  The state delta is the
    sorted triples from the state before the command to the state after
    it, and the fingerprint a content digest of the state after; both
    are empty when FetchState never ran for the command."""
    alert = record.alert
    after = record.state_after
    return {
        "type": "command",
        "seq": seq,
        "t": record.time,
        "device": record.device,
        "method": record.method,
        "args": [_jsonable(a) for a in record.args],
        "label": record.label.value if record.label is not None else None,
        "location": record.location,
        "verdict": {
            "outcome": alert.kind.value if alert is not None else "allowed",
            "rule_id": alert.rule_id if alert is not None else None,
            "message": alert.message if alert is not None else None,
            "cache": record.rule_cache,
            "dispatch": record.dispatch,
        },
        "trajectory": record.sweep._asdict() if record.sweep is not None else None,
        "state_delta": (
            [
                [var, key, _jsonable(value)]
                for var, key, value in after.delta_from(record.state_before)
            ]
            if after is not None
            else []
        ),
        "state_fp": content_digest(after.as_dict()) if after is not None else None,
        "obs_span_id": record.span_id,
    }


def run_trace(
    workload: str,
    params: Dict[str, Any],
    obs: bool,
    records: Sequence[Any],
    outcome: Dict[str, Any],
) -> RunTrace:
    """The trace of one run of *workload*: its records, then *outcome*."""
    events = [trace_event(seq, record) for seq, record in enumerate(records)]
    header = {
        "type": "header",
        "schema_version": SCHEMA_VERSION,
        "trace_id": _trace_id(workload, params, obs),
        "workload": workload,
        "params": params,
        "obs": bool(obs),
    }
    footer = {
        "type": "end",
        "events": len(events),
        "final_time": events[-1]["t"] if events else 0.0,
        "outcome": {k: _jsonable(v) for k, v in sorted(outcome.items())},
    }
    return RunTrace(header=header, events=events, footer=footer)
