"""Guard benchmark: per-command latency and throughput of the RABIT guard.

    python3 guardbench/run.py --workload mix_inproc --seed 1 --seconds 10 --trace 0

Workloads (see README.md for what each is for):

- ``mix_inproc``  -- hein preset scripts, some mutated, guarded in process
  with the modified RABIT and the headless Extended Simulator;
- ``mix_serve``   -- the same traffic through a guard service child process,
  two closed-loop sessions;
- ``repeat_bare`` -- long-lived decks cycling device state under the base
  RABIT (no simulator), where the rule-verdict cache can hit.

Prints the metrics with units and sample counts, then, as its last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``).
"""

from __future__ import annotations

import time

T_LAUNCH = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import drivers  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402
import traffic  # noqa: E402

T_IMPORTED = time.perf_counter()

WORKLOADS = ("mix_inproc", "mix_serve", "repeat_bare")
#: Closed-loop service sessions (one per core of the 2-core target box).
SERVE_SESSIONS = 2
#: Set-up repetitions per run; the reported set-up time is their median.
SETUP_REPEATS = 3
#: Length of the traced run, as a share of the timed run's.
TRACED_SHARE = 0.5

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "commands_per_s": "1/s",
    "command_us_p50": "us",
    "command_us_p99": "us",
    "guard_us_p50": "us",
    "guard_us_p99": "us",
    "session_open_us_p50": "us",
    "cpu_us_per_command": "us",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def options_for(workload: str) -> Any:
    return traffic.bare_options() if workload == "repeat_bare" else traffic.mix_options()


def make_pool(workload: str, seed: int, base: traffic.Base) -> List[traffic.Script]:
    if workload == "repeat_bare":
        return traffic.bare_traffic(seed, base)
    return traffic.mix_traffic(seed, base)


def verdict_digest(pool: List[traffic.Script]) -> str:
    """Digest of the reference verdict stream, comparable across commits."""
    stream = [[list(c) for c in s.commands] + [list(v) if v else None for v in s.verdicts] for s in pool]
    return hashlib.sha256(json.dumps(stream, sort_keys=True).encode()).hexdigest()[:16]


# -- set-up -------------------------------------------------------------------


def inproc_setup_probe(workload: str) -> float:
    """One more in-process set-up, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def warm_inproc(workload: str, base: traffic.Base) -> float:
    """Run the warm-up scripts once; seconds it took."""
    started = time.perf_counter()
    tally = drivers.run_inproc(traffic.warmup_pool(base), options_for(workload), math.inf, once=True)
    if tally.failed:
        raise RuntimeError(f"warm-up failed: {tally.errors}")
    return time.perf_counter() - started


def start_server(name: str, base: traffic.Base, trace: bool = False) -> Tuple[drivers.ServerProcess, float]:
    """A started, warmed-up service, and its launch-to-ready seconds."""
    server = drivers.ServerProcess(name, trace=trace)
    try:
        launch_s = server.start()
        started = time.perf_counter()
        tally = asyncio.run(
            drivers.run_serve(
                traffic.warmup_pool(base), server.socket, math.inf, SERVE_SESSIONS, server.alive, once=True
            )
        )
        if tally.failed:
            raise RuntimeError(f"warm-up failed: {tally.errors}")
        return server, launch_s + time.perf_counter() - started
    except BaseException:
        server.stop()
        raise


# -- workloads ----------------------------------------------------------------


def end_to_end(
    tally: drivers.Tally, cpu_s: float, rss_mb: float, setups: List[float]
) -> Dict[str, Tuple[float, int]]:
    """End-to-end metrics as ``name -> (value, sample count)``."""
    n = tally.completed
    return {
        "commands_per_s": (n / tally.wall_s, n),
        "command_us_p50": (measure.percentile(tally.command_us, 50), n),
        "command_us_p99": (measure.percentile(tally.command_us, 99), n),
        "guard_us_p50": (measure.percentile(tally.guard_us, 50), len(tally.guard_us)),
        "guard_us_p99": (measure.percentile(tally.guard_us, 99), len(tally.guard_us)),
        "session_open_us_p50": (measure.percentile(tally.open_us, 50), len(tally.open_us)),
        "cpu_us_per_command": (cpu_s * 1e6 / n, n),
        "peak_rss_mb": (rss_mb, 1),
        "setup_s": (statistics.median(setups), len(setups)),
    }


def write_spans(name: str, **span_lists: list) -> Path:
    """Write the traced run's spans out, one JSON list per line:
    ``[process, name, start, end, parent, command id, attrs]``, where the
    command id is the index of the span's root."""
    path = ROOT / drivers.RUN_DIR / f"spans-{name}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for side, spans in span_lists.items():
            for span, root in zip(spans, tracing.roots(spans)):
                f.write(json.dumps([side, *span[:4], root, span[4]]) + "\n")
    return path


def bench_inproc(args: argparse.Namespace, base: traffic.Base, pool: List[traffic.Script]) -> Dict[str, Any]:
    options = options_for(args.workload)
    setups = [inproc_setup_probe(args.workload) for _ in range(SETUP_REPEATS - 1)]
    setups.append(T_IMPORTED - T_LAUNCH + warm_inproc(args.workload, base))
    cpu_started = time.process_time()
    tally = drivers.run_inproc(pool, options, args.seconds)
    cpu_s = time.process_time() - cpu_started
    result = {"tally": tally, "e2e": end_to_end(tally, cpu_s, measure.peak_rss_mb(os.getpid()), setups)}
    if args.trace:
        recorder = tracing.SpanRecorder()
        uninstall = tracing.install(recorder, "inproc")
        try:
            traced = drivers.run_inproc(pool, options, args.seconds * TRACED_SHARE, recorder=recorder)
        finally:
            uninstall()
        sums = tracing.summarize(recorder.spans)
        result.update(traced=traced, sums=sums, spans_file=write_spans(args.workload, inproc=recorder.spans))
        result["layers"] = tracing.layer_metrics(
            sums, traced.completed, traced.sessions, traced.robot_moves, traced.blocked,
            command_s=sums.get(f"{tracing.COMMAND}.dur", 0.0),
            overhead_pct=overhead_pct(tally, traced),
        )
    return result


def overhead_pct(untraced: drivers.Tally, traced: drivers.Tally) -> float:
    """How much slower, in commands per second, the traced run was."""
    rate = untraced.completed / untraced.wall_s
    return 100.0 * (rate - traced.completed / traced.wall_s) / rate


def batch_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, float]:
    sweeps = {k: after["sweeps"][k] - before["sweeps"][k] for k in ("batched", "batches", "degraded")}
    sweeps["degraded_commands"] = after["degraded_commands"] - before["degraded_commands"]
    return sweeps


def bench_serve(args: argparse.Namespace, base: traffic.Base, pool: List[traffic.Script]) -> Dict[str, Any]:
    setups: List[float] = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, setup_s = start_server(f"serve{i}", base)
            setups.append(setup_s)
        stats_before = asyncio.run(drivers.server_stats(server.socket))
        cpu_started = measure.cpu_seconds(server.pid)
        tally = asyncio.run(
            drivers.run_serve(pool, server.socket, args.seconds, SERVE_SESSIONS, server.alive)
        )
        window = (tally.start, time.perf_counter())
        if not server.alive():
            raise RuntimeError("the guard service died during the timed run")
        cpu_s = measure.cpu_seconds(server.pid) - cpu_started
        rss_mb = measure.peak_rss_mb(server.pid)
        batch = batch_delta(stats_before, asyncio.run(drivers.server_stats(server.socket)))
    finally:
        dump = server.stop() if server is not None else {}
    tally.guard_us = [g * 1e6 for started, g in dump.get("guard", []) if window[0] <= started <= window[1]]
    result = {"tally": tally, "batch": batch, "e2e": end_to_end(tally, cpu_s, rss_mb, setups)}
    if args.trace:
        result.update(trace_serve(args, base, pool, tally))
    return result


def trace_serve(
    args: argparse.Namespace, base: traffic.Base, pool: List[traffic.Script], untraced: drivers.Tally
) -> Dict[str, Any]:
    server, _setup_s = start_server("traced", base, trace=True)
    recorder = tracing.SpanRecorder()
    try:
        stats_before = asyncio.run(drivers.server_stats(server.socket))
        uninstall = tracing.install(recorder, "client")
        try:
            traced = asyncio.run(
                drivers.run_serve(
                    pool, server.socket, args.seconds * TRACED_SHARE, SERVE_SESSIONS, server.alive,
                    recorder=recorder,
                )
            )
        finally:
            uninstall()
        window = (traced.start, time.perf_counter())
        batch = batch_delta(stats_before, asyncio.run(drivers.server_stats(server.socket)))
    finally:
        dump = server.stop()
    server_spans = dump.get("spans", [])
    client = tracing.summarize(recorder.spans, window)
    service = tracing.summarize(server_spans, window)
    hop_s = (
        client.get("command.dur", 0.0)
        - client.get("serve.protocol.encode.dur", 0.0)
        - client.get("serve.protocol.decode.dur", 0.0)
        - service.get(f"{tracing.HANDLE}.dur", 0.0)
    )
    sums = tracing.merge(client, service)
    layers = tracing.layer_metrics(
        sums, traced.completed, traced.sessions, traced.robot_moves, traced.blocked,
        command_s=client.get("command.dur", 0.0), hop_s=hop_s,
        open_s=tracing.mean_duration(server_spans, "serve.session.build_guarded_deck", window),
        batch=batch, overhead_pct=overhead_pct(untraced, traced),
    )
    return {
        "traced": traced, "sums": sums, "layers": layers, "hop_s": hop_s,
        "spans_file": write_spans(args.workload, client=recorder.spans, server=server_spans),
    }


# -- report -------------------------------------------------------------------


def report(args: argparse.Namespace, pool: List[traffic.Script], result: Dict[str, Any]) -> Dict[str, Any]:
    tally: drivers.Tally = result["tally"]
    n = max(tally.completed, 1)
    batch = result.get("batch")
    print(f"== guardbench {args.workload}  seed {args.seed}  {args.seconds:g} s timed ==")
    print(
        f"traffic: {len(pool)} scripts in the pool, {sum(len(s.commands) for s in pool)} commands, "
        f"verdict digest {verdict_digest(pool)}"
    )
    print(
        f"  commands per session {tally.completed / max(tally.sessions, 1):.1f}, "
        f"robot moves {100.0 * tally.robot_moves / n:.1f} %, blocked {100.0 * tally.blocked / n:.2f} %, "
        f"rule-cache hit ratio {tally.cache_hits / max(tally.cache_lookups, 1):.3f}, "
        + (f"mean batch size {batch['batched'] / max(batch['batches'], 1):.2f}, "
           f"degraded {batch['degraded']}" if batch else "mean batch size - (no service)")
    )
    print("end to end (untraced):")
    for name, (value, count) in result["e2e"].items():
        print(f"  {name:22s} {value:14.3f} {END_TO_END[name]:5s} n={count}")
    for name, samples in (("command_us", tally.command_us), ("guard_us", tally.guard_us)):
        tail = measure.tail_percentile(samples)
        if tail is not None:
            print(f"  {name} highest supported tail: p{tail[0]:g} = {tail[1]:.1f} us (n={len(samples)})")
    failed_ratio = tally.failed / max(tally.attempted, 1)
    print(f"  {'failed_ratio':22s} {failed_ratio:14.6f} ratio n={tally.attempted} attempted")
    for error in tally.errors:
        print(f"  failure: {error}")
    attempted, failed = tally.attempted, tally.failed
    if "layers" not in result:
        return {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {
                name: {"value": value, "unit": END_TO_END[name]} for name, (value, _n) in result["e2e"].items()
            },
        }
    traced: drivers.Tally = result["traced"]
    attempted, failed = attempted + traced.attempted, failed + traced.failed
    spans_file = result["spans_file"].relative_to(ROOT)
    print(f"traced run: {traced.completed} commands, {traced.failed} failed, spans in {spans_file}")
    for error in traced.errors:
        print(f"  failure: {error}")
    total = result["sums"].get("command.dur", 0.0)
    print("  self time by layer (us per command, share of caller-side command time):")
    layers = tracing.self_by_layer(result["sums"], result.get("hop_s", 0.0))
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        share = 100.0 * seconds / total if total else 0.0
        print(f"    {layer:22s} {seconds * 1e6 / max(traced.completed, 1):10.1f} {share:6.1f} %")
    print(f"per layer (n={traced.completed} traced commands):")
    for name, value in result["layers"].items():
        print(f"  {name:40s} {value:12.3f} {tracing.PER_LAYER[name][0]}")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {
            name: {"value": value, "unit": tracing.PER_LAYER[name][0]} for name, value in result["layers"].items()
        },
    }


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    base = traffic.load_base()
    if args.setup_probe:
        print(json.dumps({"setup_s": T_IMPORTED - T_LAUNCH + warm_inproc(args.workload, base)}))
        return 0
    pool = make_pool(args.workload, args.seed, base)
    bench = bench_serve if args.workload == "mix_serve" else bench_inproc
    print(json.dumps(report(args, pool, bench(args, base, pool))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
