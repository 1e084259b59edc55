"""The serve client's bounded-backoff retry decorator.

All timing runs against an injected fake sleep, so the tests pin the
exact deterministic delay schedule (doubling, capped, seeded jitter)
without ever waiting, and prove the policy's central safety property:
only connect/timeout transients are retried — anything else propagates
on the first attempt.
"""

import asyncio

import pytest

from repro.serve.retry import RetryPolicy, backoff_delays, retrying


def _collecting_sleep(record):
    async def fake_sleep(delay):
        record.append(delay)

    return fake_sleep


def run(coro):
    return asyncio.run(coro)


class Flaky:
    """Fails with *exc* the first *failures* calls, then succeeds."""

    def __init__(self, exc, failures):
        self.exc = exc
        self.failures = failures
        self.calls = 0

    async def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc
        return "ok"


def test_backoff_schedule_doubles_and_caps():
    policy = RetryPolicy(
        attempts=6, base_delay=0.1, max_delay=0.5, jitter=0.0, seed=0
    )
    assert backoff_delays(policy) == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])


def test_backoff_schedule_is_deterministic_per_seed():
    policy = RetryPolicy(attempts=5, jitter=0.25, seed=42)
    first = backoff_delays(policy)
    second = backoff_delays(policy)
    assert first == second
    # Jitter inflates each delay by at most the jitter amplitude.
    bare = backoff_delays(RetryPolicy(attempts=5, jitter=0.0, seed=42))
    for jittered, base in zip(first, bare):
        assert base <= jittered <= base * 1.25
    # A different seed decorrelates the schedule.
    assert backoff_delays(RetryPolicy(attempts=5, jitter=0.25, seed=43)) != first


def test_retries_transient_then_succeeds():
    slept = []
    policy = RetryPolicy(attempts=4, base_delay=0.05, jitter=0.0)
    fn = Flaky(ConnectionRefusedError("down"), failures=2)
    wrapped = retrying(policy, sleep=_collecting_sleep(slept))(fn)
    assert run(wrapped()) == "ok"
    assert fn.calls == 3
    assert slept == pytest.approx(backoff_delays(policy)[:2])


def test_timeout_is_transient_too():
    slept = []
    fn = Flaky(TimeoutError("slow"), failures=1)
    wrapped = retrying(RetryPolicy(jitter=0.0), sleep=_collecting_sleep(slept))(fn)
    assert run(wrapped()) == "ok"
    assert fn.calls == 2


def test_exhaustion_reraises_last_error():
    slept = []
    policy = RetryPolicy(attempts=3, base_delay=0.05, jitter=0.0)
    fn = Flaky(ConnectionResetError("gone"), failures=99)
    wrapped = retrying(policy, sleep=_collecting_sleep(slept))(fn)
    with pytest.raises(ConnectionResetError):
        run(wrapped())
    assert fn.calls == 3
    assert slept == pytest.approx(backoff_delays(policy))


def test_non_transient_errors_propagate_immediately():
    slept = []
    fn = Flaky(ValueError("a bug, not a transient"), failures=99)
    wrapped = retrying(RetryPolicy(), sleep=_collecting_sleep(slept))(fn)
    with pytest.raises(ValueError):
        run(wrapped())
    assert fn.calls == 1
    assert slept == []


def test_custom_retry_on_extends_the_transient_set():
    slept = []
    policy = RetryPolicy(retry_on=(FileNotFoundError,), jitter=0.0)
    fn = Flaky(FileNotFoundError("socket not there yet"), failures=1)
    wrapped = retrying(policy, sleep=_collecting_sleep(slept))(fn)
    assert run(wrapped()) == "ok"
    assert fn.calls == 2


def test_single_attempt_never_sleeps():
    slept = []
    fn = Flaky(ConnectionError("down"), failures=99)
    wrapped = retrying(
        RetryPolicy(attempts=1), sleep=_collecting_sleep(slept)
    )(fn)
    with pytest.raises(ConnectionError):
        run(wrapped())
    assert fn.calls == 1
    assert slept == []


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-0.1)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=-1.0)


# -- the client's transient error taxonomy -----------------------------------
#
# The service can vanish mid-session (worker crash, drain, deploy).  The
# client must surface that as a *distinct, retry-eligible* error — not a
# bare ConnectionResetError from the guts of asyncio, and never a
# generic ServeError the policy would refuse to retry — unless a command
# frame had left: that command may have run, so the loss surfaces as the
# non-retryable ServeSessionLost instead.


def test_connection_lost_is_a_retry_eligible_serve_error():
    from repro.serve.client import (
        ServeConnectionLost,
        ServeError,
        ServeUnavailableError,
    )

    # Both transients subclass ConnectionError, so the stock policy's
    # transient set covers them with no policy changes.
    assert issubclass(ServeConnectionLost, ServeError)
    assert issubclass(ServeConnectionLost, ConnectionError)
    assert issubclass(ServeUnavailableError, ServeError)
    assert issubclass(ServeUnavailableError, ConnectionError)

    slept = []
    fn = Flaky(ServeConnectionLost("server went away mid-request"), failures=2)
    wrapped = retrying(
        RetryPolicy(attempts=4, jitter=0.0), sleep=_collecting_sleep(slept)
    )(fn)
    assert run(wrapped()) == "ok"
    assert fn.calls == 3

    fn = Flaky(
        ServeUnavailableError("session limit reached", code="session-limit"),
        failures=1,
    )
    wrapped = retrying(RetryPolicy(jitter=0.0), sleep=_collecting_sleep(slept))(fn)
    assert run(wrapped()) == "ok"
    assert fn.calls == 2


async def _slam_after_open(reader, writer):
    # Answer the open, read one more frame, then hang up without
    # warning — the shape of a worker dying under a live session.
    await reader.readline()
    writer.write(b'{"ok":true,"session":1}\n')
    await writer.drain()
    await reader.readline()
    writer.close()


async def _request_after_slam(payload):
    from repro.serve.client import ServeClient

    server = await asyncio.start_server(_slam_after_open, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    client = await ServeClient.open_tcp("127.0.0.1", port)
    try:
        assert await client.open_session(deck="hein") == 1
        await client.request(payload)
    finally:
        await client.close()
        server.close()
        await server.wait_closed()


def test_server_closing_mid_session_raises_connection_lost():
    from repro.serve.client import ServeConnectionLost

    # A journal request moves nothing in the lab, so its lost answer
    # is safe to replay.
    with pytest.raises(ServeConnectionLost) as excinfo:
        run(_request_after_slam({"op": "journal"}))
    # The distinct type is what makes it retry-eligible; the message
    # says what happened rather than leaking asyncio internals.
    assert isinstance(excinfo.value, ConnectionError)
    assert "connection" in str(excinfo.value).lower()


def test_server_closing_after_a_command_raises_session_lost():
    from repro.serve.client import ServeError, ServeSessionLost

    # The command frame left, so the service may have executed it: the
    # lab state is unknown, and no retry policy may replay it.
    with pytest.raises(ServeSessionLost) as excinfo:
        run(_request_after_slam({"op": "command", "device": "ur3e"}))
    assert isinstance(excinfo.value, ServeError)
    assert not isinstance(excinfo.value, ConnectionError)
    assert "connection" in str(excinfo.value).lower()


def test_command_that_never_left_raises_connection_lost():
    from repro.serve.client import ServeClient, ServeConnectionLost

    async def open_then_hang_up(reader, writer):
        await reader.readline()
        writer.write(b'{"ok":true,"session":1}\n')
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(open_then_hang_up, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = await ServeClient.open_tcp("127.0.0.1", port)
        try:
            assert await client.open_session(deck="hein") == 1
            await asyncio.sleep(0.1)  # the client sees the hang-up first
            await client.command("ur3e", "go_to_home_pose")
        finally:
            await client.close()
            server.close()
            await server.wait_closed()

    # The service hung up before the command was sent, so it cannot have
    # run: replaying it on a fresh connection is safe.
    with pytest.raises(ServeConnectionLost, match="before the request"):
        run(scenario())


def test_session_lost_is_never_retried():
    from repro.serve.client import ServeSessionLost

    slept = []
    fn = Flaky(ServeSessionLost("command answer lost"), failures=1)
    wrapped = retrying(RetryPolicy(attempts=4), sleep=_collecting_sleep(slept))(fn)
    with pytest.raises(ServeSessionLost):
        run(wrapped())
    assert fn.calls == 1 and slept == []


def test_unavailable_refusal_carries_its_code():
    from repro.serve.client import ServeClient, ServeUnavailableError

    async def scenario():
        async def refuse(reader, writer):
            await reader.readline()
            writer.write(
                b'{"ok":false,"error":"worker 1 unavailable; retry shortly",'
                b'"code":"worker-unavailable","retryable":true}\n'
            )
            await writer.drain()
            await reader.readline()
            writer.close()

        server = await asyncio.start_server(refuse, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = await ServeClient.open_tcp("127.0.0.1", port)
            with pytest.raises(ServeUnavailableError) as excinfo:
                await client.open_session(deck="hein")
            assert excinfo.value.code == "worker-unavailable"
            await client.close()
        finally:
            server.close()
            await server.wait_closed()

    run(scenario())
