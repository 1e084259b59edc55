"""§II-C — RABIT's latency overhead.

Paper: "Without the Extended Simulator, RABIT incurs approximately 0.03 s
overhead (1.5 %) ... with the Extended Simulator, RABIT incurs
approximately 2 s overhead (112 %)", dominated by the simulator GUI that
the deployment plan bypasses.

Virtual-clock accounting reproduces the ratios deterministically; the
pytest-benchmark kernel additionally measures the *real* CPU cost of one
full Fig. 2 guard round-trip (validate + execute + fetch + compare).
"""


from repro.analysis.latency import measure_workflow_latency
from repro.analysis.report import format_table
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck

PAPER = {
    "rabit": {"per_command": 0.03, "percent": 1.5},
    "rabit+es": {"per_command": 2.0, "percent": 112.0},
}


def test_latency_overhead(emit, trend, benchmark):
    reports = measure_workflow_latency()

    rows = []
    for name in ("unmonitored", "rabit", "rabit+es", "rabit+es-headless"):
        report = reports[name]
        paper = PAPER.get(name)
        rows.append(
            [
                name,
                report.commands,
                f"{report.experiment_seconds:.1f} s",
                f"{report.overhead_per_command:.4f} s",
                f"{report.overhead_percent:.1f} %",
                f"{paper['per_command']:.2f} s / {paper['percent']:.1f} %" if paper else "-",
            ]
        )
    rendered = format_table(
        ["configuration", "commands", "baseline", "overhead/cmd", "overhead %", "paper"],
        rows,
        title="§II-C latency overhead (virtual-clock accounting)",
    )
    emit("latency_overhead", rendered)
    trend(
        "latency_overhead",
        {
            name: {
                "overhead_per_command_s": round(report.overhead_per_command, 6),
                "overhead_percent": round(report.overhead_percent, 3),
            }
            for name, report in reports.items()
        },
    )

    # Shape assertions against the paper's numbers.
    assert 0.02 <= reports["rabit"].overhead_per_command <= 0.04
    assert 1.0 <= reports["rabit"].overhead_percent <= 2.5
    assert 1.8 <= reports["rabit+es"].overhead_per_command <= 2.2
    assert 95.0 <= reports["rabit+es"].overhead_percent <= 130.0
    assert reports["rabit+es-headless"].overhead_percent < 3.0

    # Real-CPU kernel: one guarded door cycle (validate/execute/fetch).
    deck = build_hein_deck()
    rabit, proxies, _ = make_rabit(deck)

    def guard_round_trip():
        proxies["dosing_device"].open_door()
        proxies["dosing_device"].close_door()

    benchmark(guard_round_trip)
    benchmark.extra_info["virtual_overheads"] = {
        name: f"{reports[name].overhead_per_command:.4f}s ({reports[name].overhead_percent:.1f}%)"
        for name in reports
    }
    # Real-CPU effect of the rule-verdict cache on the repeated kernel
    # (virtual-clock charges above are unaffected by memoization).
    if rabit.rule_cache is not None:
        benchmark.extra_info["rule_cache"] = rabit.rule_cache.stats()
