"""Ablation — time vs. space multiplexing throughput.

§IV presents space multiplexing as the policy that keeps both arms
moving concurrently ("while pushing for more concurrency in their
experiments").  This ablation runs the dual-arm Fig. 5 workload, splits
the traced commands per arm, and compares the virtual makespan under the
two policies — the quantitative version of the paper's qualitative
trade-off.  Safety is identical (both policies stop Bug B; see
``test_multiplexing``); only throughput differs.
"""


from repro.analysis.concurrency import compare_makespans
from repro.analysis.report import format_table
from repro.testbed.deck import attach_space_multiplexing
from repro.workflow import build_context, build_preset, execute_dag


def test_multiplexing_throughput(emit, benchmark):
    # Record the dual-arm workload once (under space multiplexing so the
    # trace itself is legal for the concurrent policy too).
    dag = build_preset("testbed_fig5")
    ctx = build_context(dag.deck, dag.deck_params, dag.prepare)
    attach_space_multiplexing(ctx.rabit, ctx.deck)
    result = execute_dag(dag, ctx)
    assert result.completed and ctx.rabit.alert_count == 0
    trace = ctx.trace

    comparison = compare_makespans(trace, ("viperx", "ned2"), handoffs=1)

    assert comparison.per_arm_busy["viperx"] > comparison.per_arm_busy["ned2"] > 0
    assert comparison.time_multiplexed > comparison.space_multiplexed
    assert comparison.speedup > 1.1  # concurrency must actually pay

    rows = [
        ["viperx busy time", f"{comparison.per_arm_busy['viperx']:.1f} s", ""],
        ["ned2 busy time", f"{comparison.per_arm_busy['ned2']:.1f} s", ""],
        ["handoff cost (sleep/wake)", f"{comparison.handoff_seconds:.1f} s", "time multiplexing only"],
        [
            "makespan, time multiplexing",
            f"{comparison.time_multiplexed:.1f} s",
            "arms serialized",
        ],
        [
            "makespan, space multiplexing",
            f"{comparison.space_multiplexed:.1f} s",
            "arms concurrent",
        ],
        ["speedup from concurrency", f"{comparison.speedup:.2f}x", "the §IV motivation"],
    ]
    rendered = format_table(
        ["quantity", "value", "note"],
        rows,
        title="Ablation: time vs. space multiplexing throughput (Fig. 5 workload)",
    )
    emit("ablation_multiplexing", rendered)

    benchmark(lambda: compare_makespans(trace, ("viperx", "ned2")))
    benchmark.extra_info["speedup"] = round(comparison.speedup, 2)
