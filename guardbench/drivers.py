"""Closed-loop drivers: in-process guarding and a guard-service child.

Both drivers replay a pool of :class:`~traffic.Script` s, cycling through
it until their time is up, and check every verdict against the
reference.  A failure is an exception, a refused or dropped connection,
a ``degraded`` service verdict, or a verdict that differs from the
reference; the session that failed is abandoned.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.monitor import ROBOT_MOVE_LABELS
from repro.serve import session as serve_session
from repro.serve.client import ServeClient, ServeError

import traffic

perf = time.perf_counter
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: Run-time files (sockets, server logs, span dumps), relative to ROOT
#: so unix socket paths stay short.
RUN_DIR = Path("guardbench") / ".run"
ROBOT_MOVES = frozenset(label.value for label in ROBOT_MOVE_LABELS)


@dataclass
class Tally:
    """What one driver phase measured."""

    command_us: List[float] = field(default_factory=list)
    guard_us: List[float] = field(default_factory=list)
    open_us: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    blocked: int = 0
    robot_moves: int = 0
    cache_hits: int = 0
    cache_lookups: int = 0
    sessions: int = 0
    wall_s: float = 0.0
    start: float = 0.0
    errors: List[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.command_us)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)

    def check(self, label: str, verdict: Any, expected: Any) -> bool:
        """Count one answered command; False (and a failure) on mismatch."""
        self.robot_moves += label in ROBOT_MOVES
        self.blocked += verdict is not None
        if verdict != expected:
            self.fail(f"verdict {verdict!r}, reference {expected!r}")
            return False
        return True


# -- in process ---------------------------------------------------------------


def run_inproc(
    pool: Sequence[traffic.Script],
    options: Any,
    seconds: float,
    recorder: Any = None,
    once: bool = False,
) -> Tally:
    """One thread, closed loop, a fresh deck per script.

    Cycles through *pool* for *seconds*, or runs it through once."""
    tally = Tally(start=perf())
    deadline = tally.start + seconds
    for script in pool if once else itertools.cycle(pool):
        if perf() >= deadline:
            break
        started = perf()
        deck, rabit = serve_session.build_guarded_deck(traffic.DECK, {}, None, options)
        tally.open_us.append((perf() - started) * 1e6)
        tally.sessions += 1
        for command, expected in zip(script.commands, script.verdicts):
            if perf() >= deadline:
                break
            tally.attempted += 1
            try:
                if recorder is None:
                    call, verdict, guard_s, execute_s = traffic.guard_command(deck, rabit, command)
                else:
                    with recorder.span("command"):
                        call, verdict, guard_s, execute_s = traffic.guard_command(deck, rabit, command)
            except Exception as exc:  # noqa: BLE001 - any error is a counted failure
                tally.fail(f"{command}: {exc!r}")
                break
            tally.command_us.append(guard_s * 1e6)
            tally.guard_us.append((guard_s - execute_s) * 1e6)
            if not tally.check(call.label.value, verdict, expected):
                break
        cache = rabit.rule_cache
        if cache is not None:
            tally.cache_hits += cache.hits
            tally.cache_lookups += cache.hits + cache.misses
    tally.wall_s = perf() - tally.start
    return tally


# -- the guard service --------------------------------------------------------


class ServerProcess:
    """A guard service child process on a unix socket.

    Started through ``serve_entry.py``, which runs ``python -m repro
    serve``'s entry point.  :meth:`start` returns once the service prints
    its listening line; :meth:`stop` always ends the process.
    """

    def __init__(self, name: str, trace: bool = False) -> None:
        os.makedirs(ROOT / RUN_DIR, exist_ok=True)
        stem = RUN_DIR / f"{name}-{os.getpid()}"
        self.socket = f"{stem}.sock"
        self.out = ROOT / f"{stem}.json"
        self.log = ROOT / f"{stem}.log"
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None
        for stale in (ROOT / self.socket, self.out):
            stale.unlink(missing_ok=True)

    def start(self, timeout: float = 60.0) -> float:
        """Launch and wait for the listening line; seconds it took."""
        started = perf()
        command = [
            sys.executable, str(BENCH / "serve_entry.py"), "--socket", self.socket, "--out", str(self.out)
        ]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        with open(self.log, "w") as log:
            self.proc = subprocess.Popen(
                command + (["--trace"] if self.trace else []),
                cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        deadline = started + timeout
        while True:
            remaining = deadline - perf()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                raise RuntimeError(f"guard service did not start within {timeout:.0f} s")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"guard service exited during start-up; see {self.log}")
            if line.startswith("guard service listening"):
                return perf() - started

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def stop(self) -> Dict[str, Any]:
        """Interrupt (then kill) the child; its dump, or ``{}``."""
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
            self.proc.stdout.close()
            self.proc = None
        (ROOT / self.socket).unlink(missing_ok=True)
        if self.log.exists() and self.log.stat().st_size == 0:
            self.log.unlink()
        if not self.out.exists():
            return {}
        dump = json.loads(self.out.read_text())
        self.out.unlink()
        return dump


async def server_stats(socket: str) -> Dict[str, Any]:
    """The service's counters, over a connection of their own."""
    client = await ServeClient.open_unix(socket)
    try:
        return await client.stats()
    finally:
        await client.close()


async def run_serve(
    pool: Sequence[traffic.Script],
    socket: str,
    seconds: float,
    sessions: int = 2,
    alive: Callable[[], bool] = lambda: True,
    recorder: Any = None,
    once: bool = False,
) -> Tally:
    """*sessions* closed-loop clients, one service session per script.

    Cycles through *pool* for *seconds*, or runs it through once."""
    tally = Tally(start=perf())
    deadline = tally.start + seconds
    scripts = iter(pool) if once else itertools.cycle(pool)

    async def run_script(script: traffic.Script) -> None:
        try:
            client = await ServeClient.open_unix(socket)
        except OSError as exc:  # includes ConnectionError
            tally.attempted += 1
            tally.fail(f"connect: {exc!r}")
            return
        in_command = False
        try:
            started = perf()
            await client.open_session(deck=traffic.DECK)
            tally.open_us.append((perf() - started) * 1e6)
            tally.sessions += 1
            for (device, method, args), expected in zip(script.commands, script.verdicts):
                if perf() >= deadline:
                    return
                tally.attempted += 1
                in_command = True
                started = perf()
                if recorder is None:
                    response = await client.command(device, method, *args)
                else:
                    with recorder.span("command"):
                        response = await client.command(device, method, *args)
                tally.command_us.append((perf() - started) * 1e6)
                in_command = False
                rule_cache = response.get("rule_cache")
                tally.cache_hits += rule_cache == "hit"
                tally.cache_lookups += rule_cache in ("hit", "miss")
                if response.get("degraded"):
                    tally.fail(f"degraded verdict for {device}.{method}")
                    return
                alert = response.get("alert")
                verdict = None if alert is None else (alert["kind"], alert["rule_id"], alert["message"])
                if not tally.check(response.get("label"), verdict, expected):
                    return
        except (ServeError, OSError) as exc:
            # A failed open still cost the script its first command.
            tally.attempted += not in_command
            tally.fail(f"{exc!r}")
        finally:
            await client.close()

    async def session_loop() -> None:
        for script in scripts:
            if perf() >= deadline or not alive():
                return
            await run_script(script)

    await asyncio.gather(*(session_loop() for _ in range(sessions)))
    tally.wall_s = perf() - tally.start
    return tally
