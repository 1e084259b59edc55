"""Self-tests of the guard benchmark.

    python3 -m pytest guardbench -q
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import drivers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import traffic  # noqa: E402

BASE = traffic.load_base()


def test_declared_metrics_are_the_reported_ones():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in tracing.PER_LAYER.items()
    ]
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_traffic_other_seed_other_traffic():
    first = traffic.mix_traffic(7, BASE, count=8)
    assert first == traffic.mix_traffic(7, BASE, count=8)
    assert first != traffic.mix_traffic(8, BASE, count=8)
    bare = traffic.bare_traffic(7, BASE, count=1, cycle_commands=30)
    assert bare == traffic.bare_traffic(7, BASE, count=1, cycle_commands=30)
    assert bare != traffic.bare_traffic(8, BASE, count=1, cycle_commands=30)
    assert all(verdict is None for verdict in bare[0].verdicts)


def test_tail_percentile_keeps_ten_samples_beyond():
    values = list(range(1, 1001))
    assert measure.tail_percentile(values) == (99.0, 990)
    assert measure.tail_percentile(values[:999]) == (95.0, 950)
    assert measure.tail_percentile(list(range(1, 21))) == (50.0, 10)
    assert measure.tail_percentile(list(range(1, 20))) is None


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ["command", 0.0, 10.0, -1, None],
        ["core.monitor.guard", 1.0, 9.0, 0, None],
        ["kinematics.plan_move", 1.5, 2.5, 1, None],
        ["devices.execute", 3.0, 7.0, 1, None],
        ["kinematics.plan_move", 4.0, 6.0, 3, None],
        ["kinematics.solve_position_ik", 4.5, 5.0, 4, {"iterations": 3}],
        ["devices.status", 7.5, 8.0, 1, None],
        # Deck set-up outside any command is not a command's time.
        ["devices.status", 20.0, 21.0, -1, None],
    ]
    sums = tracing.summarize(spans)
    assert sums["command.self"] == 2.0
    assert sums["core.monitor.guard.self"] == 8.0 - 1.0 - 4.0 - 0.5
    assert sums["devices.execute.self"] == 2.0
    assert sums["kinematics.plan_move.self"] == 1.0 + 1.5
    assert sums["kinematics.solve_position_ik.self"] == 0.5
    assert (sums["plan_guard"], sums["plan_execute"]) == (1.0, 2.0)
    assert (sums["devices.status.n"], sums["fetch_state.n"]) == (1, 1)
    assert sum(tracing.self_by_layer(sums).values()) == 10.0
    layers = tracing.layer_metrics(sums, 1, 1, 1, 0, command_s=sums["command.dur"])
    assert layers["bench.unattributed_pct"] == 20.0
    assert layers["kinematics.ik_iterations_per_solve"] == 3.0


def test_wrong_expected_verdict_is_a_failure():
    script = traffic.mix_traffic(3, BASE, count=1)[0]
    wrong = (("invalid_command", "G1", "not what the guard says"),) + script.verdicts[1:]
    tally = drivers.run_inproc(
        [traffic.Script(script.origin, script.commands, wrong)], traffic.mix_options(), math.inf, once=True
    )
    assert (tally.attempted, tally.failed) == (1, 1)


def test_killed_server_is_a_failure(monkeypatch):
    monkeypatch.chdir(BENCH.parent)  # socket paths are relative to the checkout
    pool = traffic.mix_traffic(3, BASE, count=2)
    server = drivers.ServerProcess("selftest")
    try:
        server.start()

        async def drive_then_kill() -> drivers.Tally:
            run = asyncio.ensure_future(drivers.run_serve(pool, server.socket, 20.0, alive=server.alive))
            await asyncio.sleep(1.0)
            server.proc.kill()
            return await run

        tally = asyncio.run(drive_then_kill())
    finally:
        server.stop()
    assert tally.failed >= 1
    assert tally.failed / tally.attempted > 0
    assert tally.wall_s < 20.0
