"""Stateful property test over guard-service sessions: fail closed.

Hypothesis draws sequences of open / command / journal / close / drop
over up to four connections and runs each against one in-process
``GuardServer(max_sessions=2)`` on a unix socket, through the harness of
``test_serve_malformed``.  A model of which connection holds a session,
and which commands that session was sent, checks every reply:

- a session's journal equals :func:`run_inprocess_journal` of the
  commands it was sent, byte for byte, unless the session ended with
  ``device-error``;
- an open past the cap gets the retryable ``session-limit`` refusal,
  and a slot frees when a session closes or its connection drops;
- the event loop records no unhandled exception, and a fresh
  connection's ping still answers (the harness checks both).
"""

import asyncio

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.serve.journal import run_inprocess_journal
from repro.serve.protocol import read_message
from repro.trace.canon import canonical_bytes
from tests.test_serve_malformed import _frame, _run

DECK = "hein_lean"
MAX_SESSIONS = 2
CONNECTIONS = 4

_LOCATIONS = st.sampled_from(
    [
        "grid_a1", "grid_a1_safe", "grid_a2", "grid_a2_safe", "dosing_approach",
        "dosing_interior", "hotplate_top", "hotplate_safe", "centrifuge_approach",
        "centrifuge_slot", "shaker_top", "shaker_safe",
    ]
)
#: Guarded methods of the ``hein_lean`` deck, with arguments its
#: resolver accepts.
_COMMANDS = st.one_of(
    st.sampled_from(
        [
            {"device": "ur3e", "method": "go_to_home_pose"},
            {"device": "ur3e", "method": "go_to_sleep_pose"},
            {"device": "ur3e", "method": "open_gripper"},
            {"device": "ur3e", "method": "close_gripper"},
            {"device": "dosing_device", "method": "open_door"},
            {"device": "dosing_device", "method": "close_door"},
            {"device": "dosing_device", "method": "dose_solid", "args": [5.0]},
            {"device": "syringe_pump", "method": "dose_solvent", "args": [1.0]},
            {"device": "hotplate", "method": "stir_solution", "args": [300.0]},
            {"device": "hotplate", "method": "stop_action"},
            {"device": "centrifuge", "method": "open_door"},
            {"device": "centrifuge", "method": "close_door"},
            {"device": "centrifuge", "method": "rotate_rotor", "args": ["N"]},
            {"device": "centrifuge", "method": "start_action", "args": [1000.0]},
            {"device": "centrifuge", "method": "stop_action"},
            {"device": "thermoshaker", "method": "shake", "args": [500.0]},
            {"device": "thermoshaker", "method": "stop_action"},
        ]
    ),
    st.builds(
        lambda method, location: {"device": "ur3e", "method": method, "args": [location]},
        st.sampled_from(["move_to_location", "pick_up_vial", "place_vial"]),
        _LOCATIONS,
    ),
)
_CONN = st.integers(0, CONNECTIONS - 1)
_COMMAND_OP = st.tuples(st.just("command"), _CONN, _COMMANDS)
#: Repeated branches weight the draw: mostly commands, often opens.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("open"), _CONN),
        st.tuples(st.just("open"), _CONN),
        _COMMAND_OP,
        _COMMAND_OP,
        _COMMAND_OP,
        _COMMAND_OP,
        st.tuples(st.sampled_from(["journal", "close", "drop"]), _CONN),
    ),
    min_size=4,
    max_size=40,
)


class _Conn:
    """One client connection and what the model expects of it."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.session = False
        self.commands = []

    async def request(self, payload):
        self.writer.write(_frame(payload))
        await self.writer.drain()
        return await asyncio.wait_for(read_message(self.reader), 10)


async def _settle(server, sessions):
    """Wait until the service holds exactly *sessions* open sessions."""
    for _ in range(2000):
        if len(server.sessions) == sessions:
            return
        await asyncio.sleep(0.001)
    raise AssertionError(f"service holds {len(server.sessions)} sessions, expected {sessions}")


async def _check_journal(conn):
    reply = await conn.request({"op": "journal"})
    assert reply["ok"], reply
    expected = run_inprocess_journal(DECK, conn.commands)
    assert canonical_bytes(reply["journal"]) == canonical_bytes(expected)


async def _play(server, path, ops):
    conns = {}

    def open_sessions():
        return sum(conn.session for conn in conns.values())

    async def connect(index):
        if index not in conns:
            conns[index] = _Conn(*await asyncio.open_unix_connection(path))
        return conns[index]

    async def hang_up(index):
        conns.pop(index).writer.close()
        await _settle(server, open_sessions())

    for op in ops:
        kind, index = op[0], op[1]
        if kind == "open":
            conn = await connect(index)
            full = open_sessions() >= MAX_SESSIONS
            reply = await conn.request({"op": "open", "deck": DECK})
            if conn.session:
                assert reply["ok"] is False and "already open" in reply["error"], reply
            elif full:
                assert reply["ok"] is False, reply
                assert reply["code"] == "session-limit" and reply["retryable"] is True
            else:
                assert reply["ok"] is True, reply
                conn.session = True
        elif kind == "command":
            # Commands go to the sessions; with none open, to a
            # connection that must refuse them.
            holders = sorted(i for i, c in conns.items() if c.session)
            if holders:
                index = holders[index % len(holders)]
            conn = await connect(index)
            command = op[2]
            reply = await conn.request({"op": "command", **command})
            if not conn.session:
                assert reply["ok"] is False and "no session" in reply["error"], reply
            elif reply.get("code") == "device-error":
                # The session stops and the service hangs up.
                assert reply["retryable"] is False
                assert await asyncio.wait_for(conn.reader.read(), 10) == b""
                conn.session = False
                await hang_up(index)
            else:
                assert "error" not in reply and reply["traced"] is True, reply
                assert reply["seq"] == len(conn.commands)
                conn.commands.append(command)
        elif kind == "journal":
            conn = await connect(index)
            if conn.session:
                await _check_journal(conn)
            else:
                reply = await conn.request({"op": "journal"})
                assert reply["ok"] is False and "no session" in reply["error"], reply
        elif index in conns:
            conn = conns[index]
            if kind == "close":
                if conn.session:
                    await _check_journal(conn)
                assert await conn.request({"op": "close"}) == {"ok": True, "op": "close"}
            conn.session = False
            await hang_up(index)
    for index in list(conns):
        if conns[index].session:
            await _check_journal(conns[index])
        conns[index].session = False
        await hang_up(index)
    assert len(server.sessions) == 0


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_OPS)
@example(
    # The cap's edge, always run: two sessions fill it, a third open is
    # refused as retryable, and dropping one connection lets it in.
    ops=[
        ("open", 0), ("open", 1), ("open", 2), ("drop", 0), ("open", 2),
        ("command", 2, {"device": "ur3e", "method": "go_to_home_pose"}),
        ("close", 2), ("open", 3), ("journal", 3),
    ]
)
def test_sessions_keep_their_journals_and_the_cap(ops):
    async def scenario(server, path):
        await _play(server, path, ops)

    _run(scenario, max_sessions=MAX_SESSIONS)
