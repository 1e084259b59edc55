"""Malformed frames get an answer, never a silently dropped connection.

Every frame a client sends gets exactly one reply.  A frame that is not
a protocol message (not UTF-8, not a finite JSON object, oversized) gets
one error frame, then the service hangs up; a command that raised after
its guard started gets a ``device-error`` frame, then the same.  Any
other bad field — wrong types, values the resolver rejects — is answered
on the live connection.  Whatever a client sends, the service stays up:
a fresh connection's ping still answers.
"""

import asyncio
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.client import ServeClient
from repro.serve.protocol import MAX_MESSAGE_BYTES, read_message
from repro.serve.server import GuardServer

OPEN = b'{"op": "open", "deck": "hein_lean"}\n'


def _frame(payload):
    return json.dumps(payload).encode("utf-8") + b"\n"


def _ping(size):
    """A ping frame of exactly *size* bytes, newline included."""
    head = b'{"op": "ping", "pad": "'
    return head + b"x" * (size - len(head) - 3) + b'"}\n'


async def _converse(server, path, frames):
    """Send *frames* one at a time; ``(replies, closed)``.

    Stops after a reply that ends the connection — a protocol error or a
    ``device-error`` — once the service has hung up."""
    reader, writer = await asyncio.open_unix_connection(path)
    replies = []
    closed = False
    try:
        for frame in frames:
            protocol_errors = server.stats["protocol_errors"]
            writer.write(frame)
            await writer.drain()
            reply = await asyncio.wait_for(read_message(reader), 10)
            assert isinstance(reply, dict) and "ok" in reply, (frame, reply)
            replies.append(reply)
            if (
                server.stats["protocol_errors"] > protocol_errors
                or reply.get("code") == "device-error"
            ):
                try:
                    rest = await asyncio.wait_for(reader.read(), 10)
                except ConnectionResetError:
                    rest = b""  # the service closed with our bytes unread
                assert rest == b"", (frame, rest)
                closed = True
                break
    finally:
        writer.close()
    return replies, closed


def _run(scenario, **server_kwargs):
    async def main():
        unhandled = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: unhandled.append(context)
        )
        server = GuardServer(**server_kwargs)
        path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-bad-"), "g.sock")
        await server.start_unix(path)
        try:
            result = await scenario(server, path)
            # Whatever the last client sent, the service still answers.
            client = await ServeClient.open_unix(path)
            await client.ping()
            await client.close()
        finally:
            await server.stop()
        assert unhandled == []
        return result

    return asyncio.run(main())


# -- known malformed frames, one by one -----------------------------------


@pytest.mark.parametrize(
    "frame, message",
    [
        (b'{"op": "ping", "note": "\xff\xfe"}\n', "utf-8"),
        (b'{"op": "open", "io_latency": NaN}\n', "NaN"),
        (b'{"op": "open", "io_latency": Infinity}\n', "Infinity"),
        (b'{"op": "open", "io_latency": 1e999}\n', "1e999"),
        (b"[" * 5000 + b"\n", "recursion"),
        (_ping(MAX_MESSAGE_BYTES + 1), "exceeds the 1048576-byte frame limit"),
    ],
    ids=["non-utf8", "nan", "infinity", "overflow", "deep", "oversized"],
)
def test_non_protocol_frames_get_one_error_frame_then_close(frame, message):
    async def scenario(server, path):
        replies, closed = await _converse(server, path, [frame])
        assert closed
        assert replies[0]["ok"] is False and message in replies[0]["error"]
        assert server.stats["protocol_errors"] == 1

    _run(scenario)


def test_a_frame_past_the_asyncio_default_limit_gets_a_normal_reply():
    async def scenario(server, path):
        frame = _ping(70_000)
        assert len(frame) == 70_000
        replies, closed = await _converse(server, path, [frame, _ping(MAX_MESSAGE_BYTES)])
        assert not closed and replies == [{"ok": True, "op": "ping"}] * 2
        assert server.stats["protocol_errors"] == 0

    _run(scenario)


@pytest.mark.parametrize(
    "command, message",
    [
        ({"device": "ur3e", "method": "go_to_home_pose", "args": "home"}, "array"),
        ({"device": "ur3e", "method": "go_to_home_pose", "kwargs": [1]}, "object"),
        ({"device": "ur3e", "method": "move_to_location", "args": [[1, 2]]}, "3D point"),
        ({"device": "hotplate", "method": "stir_solution", "args": ["hot"]}, "float"),
        ({"device": "ur3e", "method": "move_to_location"}, "bad arguments"),
        ({"device": "ur3e", "method": "__init__"}, "no method"),
    ],
    ids=["args-string", "kwargs-array", "point-shape", "value-string", "no-ref", "private"],
)
def test_bad_command_fields_are_answered_on_the_live_connection(command, message):
    async def scenario(server, path):
        frames = [OPEN, _frame({"op": "command", **command}), _frame(
            {"op": "command", "device": "ur3e", "method": "go_to_home_pose"}
        )]
        replies, closed = await _converse(server, path, frames)
        assert not closed
        opened, refused, next_command = replies
        assert opened["ok"]
        assert refused["ok"] is False and message in refused["error"]
        assert "code" not in refused
        # Nothing ran, so the session carries on.
        assert next_command["ok"] and next_command["seq"] == 0

    _run(scenario)


@pytest.mark.parametrize(
    "latency",
    ["inf", "-inf", "nan", -1, [0.1], 10**400],
    ids=["inf", "-inf", "nan", "negative", "array", "int-overflow"],
)
def test_open_refuses_a_non_finite_or_negative_io_latency(latency):
    async def scenario(server, path):
        replies, closed = await _converse(
            server, path, [_frame({"op": "open", "io_latency": latency}), OPEN]
        )
        assert not closed
        assert replies[0]["ok"] is False and "io_latency" in replies[0]["error"]
        assert replies[1]["ok"], "the same connection can still open a session"

    _run(scenario)


# -- fuzzing ---------------------------------------------------------------

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()  # NaN and infinities render as non-JSON tokens
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)
_DEVICES = st.sampled_from(
    ["ur3e", "hotplate", "centrifuge", "dosing_device", "syringe_pump", "vial_1", "nope"]
)
_METHODS = st.sampled_from(
    [
        "go_to_home_pose", "move_to_location", "pick_up_vial", "place_vial",
        "open_gripper", "close_gripper", "open_door", "close_door", "set_door",
        "stir_solution", "start_action", "set_action_value", "rotate_rotor",
        "dose_solid", "dose_solvent", "status", "cap_vial", "__init__", "nope",
    ]
)
#: Plausible argument values: real locations and states, finite numbers,
#: points of the right and the wrong length.
_ARG = st.one_of(
    st.sampled_from(
        ["grid_a1_safe", "dosing_interior", "vial_1", "N", "sideways", "open", "hot"]
    ),
    st.none(),
    st.integers(-5, 500),
    st.floats(allow_nan=False, allow_infinity=False),
    st.lists(st.floats(-1, 1), min_size=2, max_size=4),
    st.text(max_size=6),
)
_KWARG_NAMES = st.sampled_from(
    ["ref", "value", "state", "temperature", "amount_mg", "volume_ml", "direction", "x"]
)
#: Well-formed commands with plausible or rejected argument values.
_COMMAND = st.fixed_dictionaries(
    {
        "op": st.just("command"),
        "device": _DEVICES,
        "method": _METHODS,
        "args": st.lists(_ARG, max_size=3),
    },
    optional={"kwargs": st.dictionaries(_KWARG_NAMES, _ARG, max_size=2)},
).map(_frame)
#: Commands whose fields have the wrong types.
_WRONG_COMMAND = st.fixed_dictionaries(
    {"op": st.just("command")},
    optional={
        "device": _DEVICES | _JSON,
        "method": _METHODS | _JSON,
        "args": _JSON,
        "kwargs": _JSON,
    },
).map(_frame)
_LATENCY = st.one_of(
    _JSON.filter(lambda v: not isinstance(v, (int, float))),
    st.floats(max_value=0.002),
    st.sampled_from(["inf", "nan", "0.001"]),
)
_OPEN = st.fixed_dictionaries(
    {"op": st.just("open")},
    optional={
        "deck": st.just("hein_lean") | _JSON,
        "params": _JSON,
        "tenant": _JSON,
        "io_latency": _LATENCY,
    },
).map(_frame)
_GARBAGE = st.binary(max_size=48).map(lambda b: b.replace(b"\n", b"") + b"\n")
_NON_UTF8 = st.binary(max_size=16).map(
    lambda b: b'{"op": "ping", "x": "\xc3\x28' + b.replace(b"\n", b"") + b'"}\n'
)
_OVERSIZED = st.just(_ping(MAX_MESSAGE_BYTES + 1))
_FRAMES = st.one_of(
    _COMMAND,
    _WRONG_COMMAND,
    _OPEN,
    _GARBAGE,
    _NON_UTF8,
    _OVERSIZED,
    _JSON.map(_frame),
    st.sampled_from([b'{"op": "ping"}\n', b'{"op": "journal"}\n', b'{"op": "stats"}\n']),
)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    opened=st.booleans(),
    frames=st.lists(_COMMAND | _FRAMES, min_size=1, max_size=6),
)
def test_every_frame_gets_a_reply(opened, frames):
    async def scenario(server, path):
        sent = ([OPEN] if opened else []) + frames
        replies, closed = await _converse(server, path, sent)
        assert closed or len(replies) == len(sent)

    _run(scenario)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(commands=st.lists(_COMMAND, min_size=1, max_size=8))
def test_every_command_gets_a_verdict_a_refusal_or_a_stop(commands):
    async def scenario(server, path):
        replies, closed = await _converse(server, path, [OPEN] + commands)
        assert closed or len(replies) == 1 + len(commands)
        for reply in replies[1:]:
            # A verdict, a refusal on the live session, or the stop.
            assert "seq" in reply or "traced" in reply or "error" in reply, reply
            assert reply.get("code") in (None, "device-error"), reply

    _run(scenario)
