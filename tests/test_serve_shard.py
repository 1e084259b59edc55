"""The sharded guard service: routing, merging, lifecycle, scrape.

Unit halves pin the two pure layers — deterministic ``(tenant, key) →
worker`` routing (process-independent by construction, unlike builtin
``hash``) and worker-index-order stat/metric merging.  Integration
halves fork real worker processes and exercise the operational story:
crash detection and watchdog respawn, retryable refusals while a shard
slot is empty, graceful drain-and-respawn, a worker dying under a
command surfacing as the non-retryable lost session, and the
``/metrics`` + ``/healthz`` HTTP face.
"""

import asyncio
import multiprocessing
import os
import signal
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serve.client import (
    ServeClient,
    ServeConnectionLost,
    ServeSessionLost,
    ServeUnavailableError,
)
from repro.serve.shard import (
    ShardConfig,
    ShardService,
    merge_numeric,
    merge_obs_snapshots,
    merged_view,
    shard_for,
    stats_to_gauges,
    worker_socket_path,
)


def run(coro):
    return asyncio.run(coro)


# -- routing ------------------------------------------------------------------


def test_shard_for_is_deterministic_and_in_range():
    for workers in (1, 2, 3, 7):
        for key in ("a", "b", "session-42", ""):
            index = shard_for("default", key, workers)
            assert 0 <= index < workers
            assert index == shard_for("default", key, workers)
    assert shard_for("default", "anything", 1) == 0


def test_shard_for_separates_tenants_and_keys():
    # Not a uniformity proof — just evidence the hash actually reads
    # both fields (a constant function would satisfy determinism too).
    spread = {shard_for("default", f"key-{i}", 4) for i in range(32)}
    assert spread == {0, 1, 2, 3}
    assert any(
        shard_for("acme", f"key-{i}", 4) != shard_for("default", f"key-{i}", 4)
        for i in range(32)
    )


def test_shard_for_rejects_zero_workers():
    with pytest.raises(ValueError):
        shard_for("default", "k", 0)


def test_worker_socket_path_layout():
    assert worker_socket_path("/tmp/g.sock", 0) == "/tmp/g.sock.w0"
    assert worker_socket_path("/tmp/g.sock", 3) == "/tmp/g.sock.w3"
    with pytest.raises(ValueError):
        worker_socket_path("/tmp/g.sock", -1)


# -- stat merging -------------------------------------------------------------


def test_merge_numeric_sums_recursively_and_maxes_highwater():
    merged = merge_numeric(
        [
            {"commands": 3, "sweeps": {"batched": 2, "max_batch": 4}, "ok": True},
            {"commands": 5, "sweeps": {"batched": 1, "max_batch": 2}, "ok": True},
        ]
    )
    assert merged["commands"] == 8
    assert merged["sweeps"]["batched"] == 3
    assert merged["sweeps"]["max_batch"] == 4, "high-water marks merge by max"
    assert merged["ok"] is True, "bools are not counters"


def test_merged_view_preserves_dead_worker_slots():
    view = merged_view([{"commands": 2}, None, {"commands": 5}])
    assert view["workers"] == 3
    assert view["workers_alive"] == 2
    assert view["per_worker"][1] is None
    assert view["totals"]["commands"] == 7


def test_merge_is_order_independent_on_totals():
    a = {"commands": 3, "sweeps": {"max_batch": 4}}
    b = {"commands": 5, "sweeps": {"max_batch": 2}}
    assert merge_numeric([a, b]) == merge_numeric([b, a])


def test_merge_obs_snapshots_sums_series_and_histograms():
    def make(commands, observations):
        registry = MetricsRegistry()
        counter = registry.counter("cmds_total", "c", labels=("outcome",))
        counter.inc(commands, outcome="allowed")
        registry.gauge("open_now", "g").set(float(commands))
        histogram = registry.histogram("batch_size", "h", buckets=(1, 4))
        for value in observations:
            histogram.observe(value)
        return registry.snapshot()

    merged = merge_obs_snapshots([make(3, [1, 2]), make(4, [8])])
    snap = merged.snapshot()
    series = snap["counters"]["cmds_total"]["values"]
    assert series == [{"labels": {"outcome": "allowed"}, "value": 7.0}]
    assert snap["gauges"]["open_now"]["values"][0]["value"] == 7.0
    hist = snap["histograms"]["batch_size"]["values"][0]
    assert hist["count"] == 3
    assert hist["sum"] == 11.0
    # Snapshot counts are per-bucket (the exporter cumulates at render):
    # values 1 and 2 land in le=1 and le=4, value 8 in +Inf.
    assert hist["counts"] == [1.0, 1.0, 1.0]

    # Rendering goes through the stock exporter, so the merged view is
    # scrape-ready without a second formatter.
    text = merged.to_prometheus()
    assert 'cmds_total{outcome="allowed"} 7' in text
    assert "batch_size_bucket" in text


def test_merge_obs_snapshots_rejects_bucket_mismatch():
    r1, r2 = MetricsRegistry(), MetricsRegistry()
    r1.histogram("lat", buckets=(1, 2)).observe(1.0)
    r2.histogram("lat", buckets=(1, 2, 4)).observe(1.0)
    with pytest.raises(ValueError, match="bucket mismatch"):
        merge_obs_snapshots([r1.snapshot(), r2.snapshot()])


def test_stats_to_gauges_flattens_nested_numerics():
    registry = MetricsRegistry()
    stats_to_gauges(
        registry,
        {"commands": 8, "sweeps": {"batched": 3}, "degraded": False, "deck": "hein"},
    )
    assert registry.gauge("shard_commands").value() == 8.0
    assert registry.gauge("shard_sweeps_batched").value() == 3.0
    assert registry.get("shard_degraded") is None, "bools are skipped"
    assert registry.get("shard_deck") is None, "strings are skipped"


# -- integration: real forked workers ----------------------------------------


async def _http_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


async def _open_pinned(service, worker, deck="hein_lean"):
    client = await ServeClient.open_tcp(service.config.host, service.config.port)
    await client.open_session(deck=deck, worker=worker)
    return client


def test_sessions_route_by_key_and_spread_by_round_robin():
    async def scenario():
        service = ShardService(ShardConfig(workers=2))
        await service.start()
        try:
            # Keyed sessions land on shard_for's worker; keyless ones
            # round-robin; pins override everything.
            keyed = "pinned-key"
            expected = shard_for("default", keyed, 2)
            client = await ServeClient.open_tcp(
                service.config.host, service.config.port
            )
            await client.open_session(deck="hein_lean", key=keyed)
            await client.close()
            assert service.router.routed_per_worker.get(expected) == 1

            for _ in range(4):
                c = await ServeClient.open_tcp(
                    service.config.host, service.config.port
                )
                await c.open_session(deck="hein_lean")
                await c.close()
            per_worker = [
                service.router.routed_per_worker.get(i, 0) for i in range(2)
            ]
            assert sum(per_worker) == 5
            assert all(count >= 2 for count in per_worker), per_worker
        finally:
            await service.stop()

    run(scenario())


def test_worker_pin_out_of_range_is_refused():
    async def scenario():
        service = ShardService(ShardConfig(workers=2))
        await service.start()
        try:
            client = await ServeClient.open_tcp(
                service.config.host, service.config.port
            )
            with pytest.raises(Exception, match="out of range"):
                await client.open_session(deck="hein_lean", worker=7)
            await client.close()
        finally:
            await service.stop()

    run(scenario())


def test_crash_detection_respawn_and_retryable_refusal():
    async def scenario():
        service = ShardService(ShardConfig(workers=2, watchdog_interval=0.02))
        await service.start()
        try:
            victim = service.workers[0].process.pid
            os.kill(victim, signal.SIGKILL)

            # Until the watchdog has respawned the slot, a pinned open
            # fails only in retry-eligible ways: the router's explicit
            # worker-unavailable refusal, or (in the narrow window where
            # the dying socket still accepted the upstream connect) a
            # connection loss.  Both subclass ConnectionError, so the
            # stock retry policy handles either.
            deadline = asyncio.get_running_loop().time() + 10.0
            while True:
                try:
                    client = await _open_pinned(service, worker=0)
                    break
                except (ServeUnavailableError, ServeConnectionLost) as exc:
                    if isinstance(exc, ServeUnavailableError):
                        assert exc.code == "worker-unavailable"
                    assert isinstance(exc, ConnectionError)
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
            assert service.stats["workers_respawned"] == 1
            assert service.workers[0].process.pid != victim
            response = await client.command("ur3e", "go_to_home_pose")
            assert response["ok"]
            await client.close()
        finally:
            await service.stop()

    run(scenario())


def test_mid_session_crash_surfaces_retry_eligible_loss():
    async def scenario():
        service = ShardService(ShardConfig(workers=2, watchdog_interval=0.02))
        await service.start()
        try:
            client = await _open_pinned(service, worker=1)
            assert (await client.command("ur3e", "go_to_home_pose"))["ok"]
            os.kill(service.workers[1].process.pid, signal.SIGKILL)
            # The worker may have run a command whose answer it never
            # sent, so the loss is a stop, not a retry.
            with pytest.raises(ServeSessionLost) as excinfo:
                for _ in range(20):  # first commands may race the kill
                    await client.command("ur3e", "go_to_home_pose")
            assert not isinstance(excinfo.value, ConnectionError)
            await client.close()
        finally:
            await service.stop()

    run(scenario())


def test_a_crash_ends_the_session_while_a_fork_holds_the_router_sockets():
    """Workers are forked, so a worker respawned while a session is open
    holds copies of the router's sockets.  The router must still end the
    client's connection when the session's worker dies."""

    async def scenario():
        service = ShardService(ShardConfig(workers=1, watchdog_interval=0.02))
        await service.start()
        holder = None
        try:
            client = await _open_pinned(service, worker=0)
            assert (await client.command("ur3e", "go_to_home_pose"))["ok"]
            holder = multiprocessing.get_context("fork").Process(target=time.sleep, args=(60,))
            holder.start()  # a copy of every socket open right now
            os.kill(service.workers[0].process.pid, signal.SIGKILL)
            with pytest.raises(ServeSessionLost):
                for _ in range(20):  # first commands may race the kill
                    await asyncio.wait_for(client.command("ur3e", "go_to_home_pose"), 10)
            await client.close()
        finally:
            if holder is not None:
                holder.kill()
                holder.join(timeout=10)
            await service.stop()

    run(scenario())


def test_drain_refuses_with_draining_code_then_respawns():
    async def scenario():
        service = ShardService(ShardConfig(workers=1, watchdog_interval=0.02))
        await service.start()
        try:
            held = await _open_pinned(service, worker=0)
            restart = asyncio.get_running_loop().create_task(
                service.restart_worker(0)
            )
            # The drain lands asynchronously; once it has, opens are
            # refused with the retryable draining code while the held
            # session keeps the old worker alive.
            deadline = asyncio.get_running_loop().time() + 10.0
            while True:
                try:
                    refused = await _open_pinned(service, worker=0)
                    await refused.close()
                except ServeUnavailableError as exc:
                    assert exc.code in ("draining", "worker-unavailable")
                    if exc.code == "draining":
                        break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert (await held.command("ur3e", "go_to_home_pose"))["ok"]

            # Closing the held session lets the drain complete; the
            # replacement then accepts sessions again.
            await held.close()
            await restart
            assert service.workers[0].respawns == 1
            reopened = await _open_pinned(service, worker=0)
            assert (await reopened.command("ur3e", "go_to_home_pose"))["ok"]
            await reopened.close()
        finally:
            await service.stop()

    run(scenario())


def test_metrics_and_healthz_endpoints():
    async def scenario():
        service = ShardService(
            ShardConfig(
                workers=2, metrics_port=0, enable_obs=True, respawn=False,
                watchdog_interval=0.02,
            )
        )
        await service.start()
        try:
            port = service.config.metrics_port
            client = await _open_pinned(service, worker=0)
            assert (await client.command("ur3e", "go_to_home_pose"))["ok"]
            await client.close()

            status, text = await _http_get(port, "/metrics")
            assert status == 200
            assert "shard_workers 2" in text
            assert "shard_workers_alive 2" in text
            assert "shard_commands 1" in text
            # Worker-side obs metrics survive the merge into the scrape,
            # the command-level families of service commands included.
            assert 'serve_commands_total{outcome="allowed"} 1' in text
            assert (
                'rabit_commands_intercepted_total{device="ur3e",label="go_home"} 1'
                in text
            )
            assert 'es_trajectory_checks_total{path="batch"} 1' in text

            status, body = await _http_get(port, "/healthz")
            assert status == 200
            assert '"ok":true' in body

            status, _ = await _http_get(port, "/nope")
            assert status == 404

            # Kill a worker with respawn disabled: health flips to 503
            # and names the dead shard.
            os.kill(service.workers[1].process.pid, signal.SIGKILL)
            deadline = asyncio.get_running_loop().time() + 10.0
            while True:
                status, body = await _http_get(port, "/healthz")
                if status == 503:
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert '"ok":false' in body
            assert '"alive":false' in body
            status, text = await _http_get(port, "/metrics")
            assert status == 200
            assert "shard_workers_alive 1" in text
        finally:
            await service.stop()

    run(scenario())


def test_merged_stats_equal_sum_of_worker_work():
    async def scenario():
        service = ShardService(ShardConfig(workers=2))
        await service.start()
        try:
            for worker, commands in ((0, 3), (1, 2)):
                client = await _open_pinned(service, worker=worker)
                for _ in range(commands):
                    await client.command("ur3e", "go_to_home_pose")
                await client.close()
            stats_client = await ServeClient.open_tcp(
                service.config.host, service.config.port
            )
            merged = (await stats_client.request({"op": "stats"}))["stats"]
            await stats_client.close()
            assert merged["totals"]["commands"] == 5
            assert merged["totals"]["sessions_opened"] == 2
            assert [p["commands"] for p in merged["per_worker"]] == [3, 2]
            assert merged["router"]["sessions_routed"] == 2
            assert merged["supervisor"]["workers_respawned"] == 0
        finally:
            await service.stop()

    run(scenario())
