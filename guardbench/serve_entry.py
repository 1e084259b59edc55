"""Guard service child process for the benchmark.

Runs the ``python -m repro serve`` entry point (``repro.cli.main``) on a
unix socket with ``--io-latency 0``, after installing one of two sets of
wrappers:

- by default, a timer around ``Rabit.guard_async`` that records, per
  command, its start and its wall time minus the wall time of the device
  execution inside it (the service-side ``guard_us``);
- with ``--trace``, the traced run's spans (see ``tracing.py``).

The service stops on SIGINT; the recordings are then written as JSON to
``--out``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, List

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from repro.cli import main as repro_main  # noqa: E402
from repro.core.monitor import Rabit  # noqa: E402

import tracing  # noqa: E402


def time_guard_async(samples: List[list]) -> None:
    """Record ``[start, guard_s]`` for every ``Rabit.guard_async`` call."""
    original = Rabit.guard_async

    @functools.wraps(original)
    async def timed(self: Any, call: Any, execute: Callable, trajectory: Any = None) -> Any:
        spent = 0.0

        async def timed_execute() -> Any:
            nonlocal spent
            started = time.perf_counter()
            try:
                return await execute()
            finally:
                spent = time.perf_counter() - started

        started = time.perf_counter()
        try:
            return await original(self, call, timed_execute, trajectory)
        finally:
            samples.append([started, time.perf_counter() - started - spent])

    Rabit.guard_async = timed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    guard: List[list] = []
    recorder = tracing.SpanRecorder()
    if args.trace:
        tracing.install(recorder, "server")
    else:
        time_guard_async(guard)
    code = repro_main(["serve", "--socket", args.socket, "--io-latency", "0"])
    Path(args.out).write_text(json.dumps({"guard": guard, "spans": recorder.spans}))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
