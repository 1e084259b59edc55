"""The wire format: newline-delimited canonical JSON.

Every message — request or response — is one line: the
:func:`repro.trace.canon.canonical_json` rendering of a JSON object,
terminated by ``\\n``.  Canonical form (sorted keys, compact separators,
ASCII) means a message's bytes are a pure function of its content, so
the differential suite can compare whole conversations byte-for-byte
and a response can double as its own equality witness.

The framing is deliberately the simplest thing that works over
:mod:`asyncio` streams; per-message size is bounded by
:data:`MAX_MESSAGE_BYTES` so one malformed client cannot balloon server
memory.  The reader accepts exactly what the encoder can produce: strict
UTF-8, and only finite numbers (the encoder refuses ``NaN`` and
``Infinity``, so the reader rejects them, and literals like ``1e999``
that overflow to infinity).
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

from repro.trace.canon import canonical_bytes

__all__ = [
    "MAX_MESSAGE_BYTES",
    "ProtocolError",
    "encode_message",
    "read_message",
]

#: Per-message ceiling (bytes, including the newline).  Generous for any
#: legitimate command or journal chunk; a hard stop for garbage.
MAX_MESSAGE_BYTES = 1 << 20


class ProtocolError(Exception):
    """The peer sent something that is not a protocol message."""


def encode_message(payload: Any) -> bytes:
    """One wire frame: canonical JSON + newline."""
    data = canonical_bytes(payload) + b"\n"
    if len(data) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte frame limit"
        )
    return data


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ProtocolError(f"number {text} overflows a finite float")
    return value


def _reject_constant(name: str) -> Any:
    raise ProtocolError(f"{name} is not a finite JSON number")


_DECODER = json.JSONDecoder(parse_float=_finite_float, parse_constant=_reject_constant)


async def read_message(reader: Any) -> Optional[dict]:
    """Read one frame; ``None`` on clean EOF, :class:`ProtocolError` on junk.

    *reader* is an :class:`asyncio.StreamReader` (or anything with an
    async ``readline``).  A line that is not UTF-8, is not valid JSON,
    holds a non-finite number, is not a JSON object, or overruns the
    frame limit raises — the connection is then unusable and should be
    closed.
    """
    try:
        line = await reader.readline()
    except (ValueError, LookupError) as exc:
        # StreamReader raises ValueError (LimitOverrunError under the
        # hood) when a line exceeds the stream's limit.
        raise ProtocolError(f"oversized or unframed message: {exc}") from exc
    if not line:
        return None
    if not line.endswith(b"\n"):
        raise ProtocolError("connection closed mid-message")
    if len(line) > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(line)} bytes exceeds the {MAX_MESSAGE_BYTES}-byte frame limit"
        )
    try:
        payload = _DECODER.decode(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors, as is an
        # integer literal past the int-conversion digit limit.
        raise ProtocolError(f"invalid JSON frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"expected a JSON object frame, got {type(payload).__name__}"
        )
    return payload
