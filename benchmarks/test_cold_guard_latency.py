"""Cold-path guard latency: compiled dispatch vs the interpreted scan.

The rule-verdict cache already makes *repeated* commands cheap; this
benchmark measures the **cold** path — the first verdict for a
(call, state) pair — where the interpreted reference walks all ~16
registered rules asking each ``applies_to`` and rebuilds the full
state content-tuple for the cache key, while the compiled path walks
only the label's precompiled decision list and reads the O(1)
incremental fingerprint token.

Two gates:

- **rule visits** (deterministic, machine-independent): the compiled
  path must consider >= 3x fewer rules per command over the full
  solubility workflow;
- **wall clock** (machine-dependent, conservatively floored): the
  cold-verdict kernel must be measurably faster compiled.

The gated kernel guards ``OPEN_DOOR``, which has no geometry.  A robot
move pays for G3's target probes as well, so the table and the trend
record also carry a report-only row: the same cold kernel on the
ur3e's ``move_to_location`` to a hein location, through both dispatches.
"""

from __future__ import annotations

import time

from repro.analysis.report import format_table
from repro.core.actions import ActionCall, ActionLabel
from repro.core.interceptor import resolve_action
from repro.core.monitor import RabitOptions
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck
from repro.workflow import run_preset


def _workflow_visit_stats(compiled: bool):
    """Run the solubility workflow cache-disabled; return per-command
    (rules considered, checks invoked, commands)."""
    options = RabitOptions.modified(rule_cache_size=0, compiled_dispatch=compiled)
    _dag, ctx, result = run_preset("solubility", options=options)
    assert result.completed, f"benchmark workflow did not complete: {result.alert}"
    engine = ctx.rabit.rulebase.compiled() if compiled else ctx.rabit.rulebase
    commands = len(ctx.trace)
    return engine.rules_considered, engine.checks_invoked, commands


#: The robot-move row's command: a free hein location above the grid.
MOVE_LOCATION = "grid_a1_safe"


def _cold_verdict_kernel(
    compiled: bool, iterations: int = 400, repeats: int = 5, move: bool = False
):
    """Median seconds for *iterations* cold rule verdicts.

    The state is mutated between calls, so every verdict misses the
    cache and pays the full cold path: cache-key construction (token vs
    content-tuple rebuild) plus the rule scan (decision list vs the
    full applies_to walk).  The call is ``OPEN_DOOR``, or with *move*
    the ur3e's ``move_to_location`` to :data:`MOVE_LOCATION`."""
    deck = build_hein_deck()
    options = RabitOptions.modified(compiled_dispatch=compiled)
    rabit, proxies, _ = make_rabit(deck, options=options)
    rabit.initialize()
    if move:
        call = resolve_action(deck.ur3e, "move_to_location", (MOVE_LOCATION,))
    else:
        call = ActionCall(ActionLabel.OPEN_DOOR, "dosing_device")

    def run() -> float:
        started = time.perf_counter()
        for i in range(iterations):
            # Invalidate the cache key: a fresh believed quantity per call.
            rabit.state.set("container_solid", "bench_vial", float(i))
            rabit._validate(call)
        return time.perf_counter() - started

    run()  # warm-up (compiles dispatch tables, primes allocators)
    return min(run() for _ in range(repeats))


def test_cold_guard_latency(emit, trend, benchmark):
    int_visits, int_checks, int_commands = _workflow_visit_stats(compiled=False)
    cmp_visits, cmp_checks, cmp_commands = _workflow_visit_stats(compiled=True)
    assert int_commands == cmp_commands

    # The two paths must do identical *check* work (same applicable
    # rules, same first-violation walk) — only the scan differs.
    assert int_checks == cmp_checks

    visits_per_cmd_interpreted = int_visits / int_commands
    visits_per_cmd_compiled = cmp_visits / cmp_commands
    visits_ratio = visits_per_cmd_interpreted / visits_per_cmd_compiled

    iterations = 400
    interpreted_s = _cold_verdict_kernel(compiled=False, iterations=iterations)
    compiled_s = _cold_verdict_kernel(compiled=True, iterations=iterations)
    speedup = interpreted_s / compiled_s
    move_interpreted_s = _cold_verdict_kernel(compiled=False, iterations=iterations, move=True)
    move_compiled_s = _cold_verdict_kernel(compiled=True, iterations=iterations, move=True)
    move_speedup = move_interpreted_s / move_compiled_s

    rows = [
        [
            "interpreted",
            f"{visits_per_cmd_interpreted:.1f}",
            f"{int_checks / int_commands:.1f}",
            f"{interpreted_s / iterations * 1e6:.1f} us",
            "1.00x",
        ],
        [
            "compiled",
            f"{visits_per_cmd_compiled:.1f}",
            f"{cmp_checks / cmp_commands:.1f}",
            f"{compiled_s / iterations * 1e6:.1f} us",
            f"{speedup:.2f}x",
        ],
        [
            "interpreted, robot move",
            "-",
            "-",
            f"{move_interpreted_s / iterations * 1e6:.1f} us",
            "1.00x",
        ],
        [
            "compiled, robot move",
            "-",
            "-",
            f"{move_compiled_s / iterations * 1e6:.1f} us",
            f"{move_speedup:.2f}x",
        ],
    ]
    rendered = format_table(
        ["dispatch", "rules visited/cmd", "checks/cmd", "cold verdict", "speedup"],
        rows,
        title=(
            "Cold-path guard latency (solubility workflow, "
            f"{int_commands} commands; kernel {iterations} cold verdicts of "
            f"open_door; report-only robot-move rows: {MOVE_LOCATION})"
        ),
    )
    emit("cold_guard_latency", rendered)
    trend(
        "cold_guard_latency",
        {
            "rule_visits_per_cmd_interpreted": round(visits_per_cmd_interpreted, 3),
            "rule_visits_per_cmd_compiled": round(visits_per_cmd_compiled, 3),
            "rule_visits_ratio": round(visits_ratio, 3),
            "cold_verdict_us_interpreted": round(interpreted_s / iterations * 1e6, 2),
            "cold_verdict_us_compiled": round(compiled_s / iterations * 1e6, 2),
            "speedup": round(speedup, 3),
            "cold_move_verdict_us_interpreted": round(move_interpreted_s / iterations * 1e6, 2),
            "cold_move_verdict_us_compiled": round(move_compiled_s / iterations * 1e6, 2),
            "move_speedup": round(move_speedup, 3),
        },
    )

    # Gate 1 (deterministic): compiled dispatch must consider >= 3x
    # fewer rules per command than the interpreted applies_to scan.
    assert visits_ratio >= 3.0, (
        f"compiled dispatch only cut rule visits by {visits_ratio:.2f}x "
        f"({visits_per_cmd_interpreted:.1f} -> {visits_per_cmd_compiled:.1f} per command)"
    )

    # Gate 2 (wall clock, conservative): the cold verdict must be
    # measurably faster end-to-end, not just visit-count-thinner.
    assert speedup >= 1.2, (
        f"cold-path speedup {speedup:.2f}x below the 1.2x floor "
        f"({interpreted_s / iterations * 1e6:.1f}us -> "
        f"{compiled_s / iterations * 1e6:.1f}us per verdict)"
    )

    benchmark(lambda: _cold_verdict_kernel(compiled=True, iterations=50, repeats=1))
    benchmark.extra_info["rule_visits_ratio"] = round(visits_ratio, 3)
    benchmark.extra_info["cold_speedup"] = round(speedup, 3)
