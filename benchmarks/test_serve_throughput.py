"""Guard-service throughput: K concurrent sessions vs one sequential loop.

The service's pitch is that one guard process can front many lab
sessions at once: while one session's arm is physically moving (modeled
here as a real ``asyncio.sleep`` per command — a scaled-down stand-in
for multi-second robot motions), the event loop runs other sessions'
guard work, and their collision sweeps drain through the shared
:class:`~repro.serve.batcher.SweepBatcher` as cross-session batches.

The baseline is the honest alternative: one in-process monitor guarding
the same command mix sequentially, paying the same per-command device
I/O as a blocking ``time.sleep``.  Both sides run a warmup phase first
so neither pays plan-cache/engine/rulebase cold costs inside the timed
region.  The gate is aggregate guarded commands/sec at K=8 ≥ 3x the
sequential rate, plus one structural assertion: sweeps actually
coalesced across sessions (max batch ≥ 2).
"""

import asyncio
import os
import tempfile
import time

from repro.analysis.report import format_table
from repro.core.interceptor import BASELINE_DURATION, resolve_action
from repro.serve.client import ServeClient
from repro.serve.server import GuardServer
from repro.serve.session import build_guarded_deck, default_serve_options

#: Modeled device round-trip per command (arm motion, lab I/O).  Real
#: arm moves run seconds; 15 ms keeps the benchmark fast while leaving
#: the CPU/IO ratio (~3.5 ms guard CPU per command on one core) in the
#: same regime a real deployment would see.
IO_LATENCY = 0.015
DECK = "hein_lean"
SESSIONS = 8
WARMUP_COMMANDS = 4
COMMANDS_PER_SESSION = 25
SEQUENTIAL_COMMANDS = 30
MIN_SPEEDUP = 3.0

#: The per-session command mix: alternating safe motions so every
#: command takes the full guard path (rules + trajectory sweep).
COMMANDS = [
    ("go_to_home_pose", ()),
    ("move_to_location", ("grid_a1_safe",)),
]


def _run_sequential(n_warmup: int, n_timed: int) -> float:
    """Guarded commands/sec for the classic one-session blocking loop."""
    deck, rabit = build_guarded_deck(DECK, {}, None, default_serve_options())
    device = deck.devices["ur3e"]

    def run_one(i: int, io: float) -> None:
        method, args = COMMANDS[i % len(COMMANDS)]
        attr = getattr(device, method)
        call = resolve_action(device, method, args, {})
        rabit.clock.advance(
            device.connection.command_latency + BASELINE_DURATION.get(call.label, 1.0),
            "experiment",
        )

        def execute():
            if io:
                time.sleep(io)
            return attr(*args)

        rabit.guard(call, execute)

    for i in range(n_warmup):
        run_one(i, 0.0)
    t0 = time.perf_counter()
    for i in range(n_timed):
        run_one(i, IO_LATENCY)
    return n_timed / (time.perf_counter() - t0)


async def _run_service(n_warmup: int, n_timed: int):
    """(commands/sec, batcher stats) for K concurrent service sessions."""
    server = GuardServer(max_sessions=SESSIONS)
    path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-bench-"), "guard.sock")
    await server.start_unix(path)
    try:
        clients = []
        for _ in range(SESSIONS):
            client = await ServeClient.open_unix(path)
            await client.open_session(deck=DECK, io_latency=IO_LATENCY)
            clients.append(client)

        async def drive(client: ServeClient, count: int) -> None:
            for i in range(count):
                method, args = COMMANDS[i % len(COMMANDS)]
                response = await client.command("ur3e", method, *args)
                assert response["ok"], response

        await asyncio.gather(*[drive(c, n_warmup) for c in clients])
        t0 = time.perf_counter()
        await asyncio.gather(*[drive(c, n_timed) for c in clients])
        wall = time.perf_counter() - t0
        stats = dict(server.batcher.stats)
        for client in clients:
            await client.close()
        return SESSIONS * n_timed / wall, stats
    finally:
        await server.stop()


def test_serve_throughput(emit, trend, benchmark):
    seq_rate = _run_sequential(WARMUP_COMMANDS, SEQUENTIAL_COMMANDS)
    service_rate, sweeps = asyncio.run(
        _run_service(WARMUP_COMMANDS, COMMANDS_PER_SESSION)
    )
    speedup = service_rate / seq_rate

    rows = [
        ["sequential (K=1)", f"{seq_rate:.1f}", "1.00x", "-"],
        [
            f"service (K={SESSIONS})",
            f"{service_rate:.1f}",
            f"{speedup:.2f}x",
            f"max batch {sweeps['max_batch']}",
        ],
    ]
    rendered = format_table(
        ["execution", "guarded cmds/s", "speedup", "sweep batching"],
        rows,
        title=(
            f"Guard-service throughput ({DECK} deck, {IO_LATENCY * 1e3:.0f} ms "
            f"modeled device I/O, {os.cpu_count()} CPUs; gate >= {MIN_SPEEDUP}x)"
        ),
    )
    emit("serve_throughput", rendered)
    trend(
        "serve_throughput",
        {
            "sessions": SESSIONS,
            "io_latency_ms": IO_LATENCY * 1e3,
            "sequential_cmds_per_s": round(seq_rate, 1),
            "service_cmds_per_s": round(service_rate, 1),
            "speedup_vs_sequential": round(speedup, 2),
            "sweep_batches": sweeps["batches"],
            "max_batch": sweeps["max_batch"],
        },
    )

    # Structural check first: the speedup only counts if sweeps really
    # coalesced across sessions.
    assert sweeps["max_batch"] >= 2, f"no cross-session batching: {sweeps}"
    assert speedup >= MIN_SPEEDUP, (
        f"K={SESSIONS} service only {speedup:.2f}x the sequential rate "
        f"(required: {MIN_SPEEDUP}x)"
    )

    # Timed kernel for pytest-benchmark comparability: one short service
    # burst end to end (connect, open, guard, close).
    benchmark.pedantic(
        lambda: asyncio.run(_run_service(0, 2)), rounds=1, iterations=1
    )
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    benchmark.extra_info["sessions"] = SESSIONS
    benchmark.extra_info["max_batch"] = sweeps["max_batch"]
