"""Multi-session guard service: isolation, sharing, and admission.

The service's contract is asymmetric sharing: sessions share the
tenant's rulebase (hence one compiled dispatch snapshot) and the sweep
batcher, and share *nothing else* — LabState, rule-verdict cache,
virtual clock, and journal are strictly per session.  These tests pin
both directions: conflicting door states never cross-contaminate
verdicts, while the rulebase object graph really is one instance per
tenant (with overlays biting only their own tenant's sessions).
"""

import asyncio
import os
import tempfile

import pytest

from repro.core.actions import ActionLabel
from repro.core.rulebase import Rule, RuleScope
from repro.serve.client import ServeClient, ServeError, ServeSessionLost
from repro.serve.protocol import read_message
from repro.serve.server import GuardServer


def serve_test(coro_fn, **server_kwargs):
    """Run *coro_fn(server, path)* against a live unix-socket service."""

    async def main():
        server = GuardServer(**server_kwargs)
        path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-test-"), "g.sock")
        await server.start_unix(path)
        try:
            return await coro_fn(server, path)
        finally:
            await server.stop()

    return asyncio.run(main())


async def open_client(path, **open_kwargs):
    client = await ServeClient.open_unix(path)
    await client.open_session(**open_kwargs)
    return client


# -- isolation ---------------------------------------------------------------


def test_conflicting_door_states_never_cross_contaminate():
    async def scenario(server, path):
        a = await open_client(path, deck="hein")
        b = await open_client(path, deck="hein")

        # Session A opens the dosing device's door; session B does not.
        opened = await a.command("dosing_device", "open_door")
        assert opened["ok"] and opened["alert"] is None

        # A may enter; B's identical command must be blocked by G1.
        enter_a = await a.command("ur3e", "move_to_location", "dosing_interior")
        assert enter_a["ok"] and enter_a["alert"] is None

        enter_b = await b.command("ur3e", "move_to_location", "dosing_interior")
        assert not enter_b["ok"]
        assert enter_b["alert"]["rule_id"] == "G1"
        assert "door" in enter_b["alert"]["message"]

        # And the contamination cannot run the other way either: B now
        # opens its own door and enters fine, while A — whose arm is
        # inside — still cannot close its door (G2).
        await b.command("dosing_device", "open_door")
        enter_b2 = await b.command("ur3e", "move_to_location", "dosing_interior")
        assert enter_b2["ok"], enter_b2

        close_a = await a.command("dosing_device", "close_door")
        assert not close_a["ok"]
        assert close_a["alert"]["rule_id"] == "G2"

        # Journals stayed strictly per-session.
        journal_a = await a.journal()
        journal_b = await b.journal()
        assert len(journal_a) == 3
        assert len(journal_b) == 3
        assert [e["alert"] is None for e in journal_a] == [True, True, False]
        assert [e["alert"] is None for e in journal_b] == [False, True, True]

        await a.close()
        await b.close()

    serve_test(scenario)


def test_sessions_have_private_clocks_and_caches():
    async def scenario(server, path):
        a = await open_client(path, deck="hein")
        b = await open_client(path, deck="hein")
        # The first go-home moves the believed arm pose (new fingerprint,
        # miss), the second re-checks the now-stable home state (miss —
        # first sight of that fingerprint), and the third finally hits.
        await a.command("ur3e", "go_to_home_pose")
        await a.command("ur3e", "go_to_home_pose")
        await a.command("ur3e", "go_to_home_pose")
        first_b = await b.command("ur3e", "go_to_home_pose")

        session_a, session_b = server.sessions[1], server.sessions[2]
        assert session_a.clock is not session_b.clock
        assert session_a.clock.now > session_b.clock.now

        # A's third identical command hit its own cache; B's first
        # identical command was still a miss — a shared cache would have
        # leaked A's verdict into B.
        assert (await a.journal())[2]["rule_cache"] == "hit"
        assert first_b["rule_cache"] == "miss"
        assert session_a.rabit.rule_cache is not session_b.rabit.rule_cache

        await a.close()
        await b.close()

    serve_test(scenario)


# -- rulebase sharing and tenant overlays ------------------------------------


def test_same_tenant_sessions_share_one_compiled_rulebase():
    async def scenario(server, path):
        a = await open_client(path, deck="hein")
        b = await open_client(path, deck="hein")
        c = await open_client(path, deck="hein", tenant="other")

        rb_a = server.sessions[1].rabit.rulebase
        rb_b = server.sessions[2].rabit.rulebase
        rb_c = server.sessions[3].rabit.rulebase
        assert rb_a is rb_b, "same tenant must share the RuleBase instance"
        assert rb_a.compiled() is rb_b.compiled(), (
            "the compiled snapshot must be memoized once per tenant revision"
        )
        assert rb_c is not rb_a, "tenants must not share rulebase instances"

        await a.close()
        await b.close()
        await c.close()

    serve_test(scenario)


def test_tenant_overlay_blocks_only_its_own_sessions():
    overlay = Rule(
        "T1",
        RuleScope.CUSTOM,
        "Tenant policy: the home pose is reserved for maintenance",
        frozenset({ActionLabel.GO_HOME}),
        lambda ctx: "tenant policy forbids the home pose",
    )

    async def scenario(server, path):
        server.tenants.add_overlay("strict", overlay)
        strict = await open_client(path, deck="hein", tenant="strict")
        plain = await open_client(path, deck="hein")

        blocked = await strict.command("ur3e", "go_to_home_pose")
        assert not blocked["ok"]
        assert blocked["alert"]["rule_id"] == "T1"
        assert blocked["alert"]["message"] == "tenant policy forbids the home pose"

        allowed = await plain.command("ur3e", "go_to_home_pose")
        assert allowed["ok"] and allowed["alert"] is None

        # Late overlays propagate to already-open sessions of the tenant
        # (the shared instance recompiles on its next revision).
        late = Rule(
            "T2",
            RuleScope.CUSTOM,
            "Tenant policy: no sleep pose either",
            frozenset({ActionLabel.GO_SLEEP}),
            lambda ctx: "tenant policy forbids the sleep pose",
        )
        server.tenants.add_overlay("strict", late)
        blocked_late = await strict.command("ur3e", "go_to_sleep_pose")
        assert not blocked_late["ok"]
        assert blocked_late["alert"]["rule_id"] == "T2"
        assert (await plain.command("ur3e", "go_to_sleep_pose"))["ok"]

        await strict.close()
        await plain.close()

    serve_test(scenario)


# -- admission and request errors --------------------------------------------


def test_session_cap_rejects_explicitly():
    async def scenario(server, path):
        first = await open_client(path, deck="hein_lean")
        second = await ServeClient.open_unix(path)
        with pytest.raises(ServeError, match="session limit"):
            await second.open_session(deck="hein_lean")
        assert server.stats["sessions_rejected"] == 1
        # The connection survives the rejection; closing A frees the slot.
        await first.close()
        await asyncio.sleep(0.05)  # let the server finish A's teardown
        assert await second.open_session(deck="hein_lean") >= 1
        await second.close()

    serve_test(scenario, max_sessions=1)


def test_request_errors_are_answered_not_fatal():
    async def scenario(server, path):
        client = await ServeClient.open_unix(path)
        with pytest.raises(ServeError, match="no session open"):
            await client.command("ur3e", "go_to_home_pose")
        with pytest.raises(ServeError, match="unknown deck"):
            await client.open_session(deck="nope")
        with pytest.raises(ServeError, match="unknown op"):
            await client.request({"op": "frobnicate"})

        # The same connection can still open a real session afterwards.
        await client.open_session(deck="hein_lean")
        with pytest.raises(ServeError, match="unknown device"):
            await client.command("warp_drive", "engage")
        with pytest.raises(ServeError, match="already open"):
            await client.open_session(deck="hein_lean")
        ok = await client.command("ur3e", "go_to_home_pose")
        assert ok["ok"]
        await client.close()

    serve_test(scenario)


def test_protocol_garbage_gets_error_frame_then_close():
    async def scenario(server, path):
        reader, writer = await asyncio.open_unix_connection(path)
        writer.write(b"this is not json\n")
        await writer.drain()
        response = await read_message(reader)
        assert response is not None
        assert response["ok"] is False
        assert "JSON" in response["error"] or "json" in response["error"]
        assert await reader.read() == b""  # server hung up
        writer.close()
        assert server.stats["protocol_errors"] == 1

    serve_test(scenario)


def test_device_error_stops_the_session_with_a_definitive_frame():
    async def scenario(server, path):
        reader, writer = await asyncio.open_unix_connection(path)
        for frame in (
            b'{"op": "open", "deck": "hein_lean"}\n',
            # RABIT has no rule against the direction, so the guard lets
            # the command through and the centrifuge itself raises.
            b'{"op": "command", "device": "centrifuge", "method": "rotate_rotor",'
            b' "args": ["sideways"]}\n',
        ):
            writer.write(frame)
            await writer.drain()
            response = await read_message(reader)
        assert response["ok"] is False
        assert response["code"] == "device-error"
        assert response["retryable"] is False
        assert "invalid compass direction" in response["error"]
        assert await reader.read() == b"", "the service ends the session"
        writer.close()
        await asyncio.sleep(0.05)  # let the server finish the teardown
        assert server.sessions == {}
        assert server.stats["commands"] == 0

    serve_test(scenario)


def test_client_raises_session_lost_on_a_device_error():
    async def scenario(server, path):
        client = await open_client(path, deck="hein_lean")
        with pytest.raises(ServeSessionLost, match="invalid compass direction") as excinfo:
            await client.command("centrifuge", "rotate_rotor", "sideways")
        assert not isinstance(excinfo.value, ConnectionError), "never replayed"
        await client.close()

    serve_test(scenario)


def test_unmodeled_methods_pass_through_untraced():
    async def scenario(server, path):
        client = await open_client(path, deck="hein_lean")
        response = await client.command("ur3e", "status")
        assert response["ok"] and response["traced"] is False
        assert (await client.journal()) == []
        await client.close()

    serve_test(scenario)


def test_server_snapshot_reports_batcher_stats():
    async def scenario(server, path):
        client = await open_client(path, deck="hein_lean")
        await client.command("ur3e", "move_to_location", "grid_a1_safe")
        stats = await client.stats()
        assert stats["sessions_open"] == 1
        assert stats["commands"] == 1
        assert stats["sweeps"]["submitted"] >= 1
        assert stats["sweeps"]["degraded"] == 0
        await client.close()

    serve_test(scenario)
