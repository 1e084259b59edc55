"""Monte Carlo sweep throughput: sequential loop vs sharded process pool.

The sweep is the repo's heaviest workload (every mutant is two full
workflow runs), and its samples share nothing — the shape the
``repro.parallel`` engine exists for.  This benchmark runs the same
seeded sweep sequentially and under a 4-worker pool, re-checks the
differential suite's invariant on the benchmark population (identical
reports), and gates the speedup at ≥ 1.8x on CI-class hardware (4+
cores).  On smaller machines the numbers are still measured, emitted,
and appended to the perf trend, but a pool cannot beat one core with
pure-Python workers, so the gate would only measure the host.

Both phases start from cold plan caches.  Every mount's shared plan
cache lives for the process, and forked workers inherit it, so a pool
timed after the sequential phase (or after earlier benchmarks) would
replay plans the sequential phase had to solve and report cache reuse as
parallelism.
"""

import os
import time

from repro.analysis.report import format_table
from repro.faults.montecarlo import run_monte_carlo
from repro.kinematics import arm

SAMPLES = 8
SEED = 2024
WORKERS = 4
MIN_SPEEDUP = 1.8
#: Cores below which the speedup gate is informational only.
GATE_MIN_CPUS = 4


def _empty_plan_caches():
    for mount in arm._MOUNTS.values():
        mount.plans.clear()


def test_montecarlo_throughput(emit, trend, benchmark):
    _empty_plan_caches()
    t0 = time.perf_counter()
    sequential = run_monte_carlo(samples=SAMPLES, seed=SEED, workers=1)
    t_seq = time.perf_counter() - t0

    _empty_plan_caches()
    t0 = time.perf_counter()
    parallel = run_monte_carlo(samples=SAMPLES, seed=SEED, workers=WORKERS)
    t_par = time.perf_counter() - t0

    # Correctness first: the timings only mean something if the sharded
    # sweep reproduced the sequential report exactly.
    assert parallel.canonical_bytes() == sequential.canonical_bytes()

    speedup = t_seq / t_par
    cpus = os.cpu_count() or 1
    gated = cpus >= GATE_MIN_CPUS
    rows = [
        ["sequential", f"{t_seq:.1f} s", f"{SAMPLES / t_seq:.2f}", "1.0x"],
        [
            f"parallel ({WORKERS} workers)",
            f"{t_par:.1f} s",
            f"{SAMPLES / t_par:.2f}",
            f"{speedup:.2f}x",
        ],
    ]
    rendered = format_table(
        ["execution", "sweep time", "mutants/s", "speedup"],
        rows,
        title=(
            f"Monte Carlo sweep throughput ({SAMPLES} mutants, seed {SEED}, "
            f"{cpus} CPUs, cold plan caches, identical reports; "
            f"gate {'ON' if gated else 'off: <' + str(GATE_MIN_CPUS) + ' cores'})"
        ),
    )
    emit("montecarlo_throughput", rendered)
    trend(
        "montecarlo_throughput",
        {
            "samples": SAMPLES,
            "workers": WORKERS,
            "cpus": cpus,
            "sequential_s": round(t_seq, 2),
            "parallel_s": round(t_par, 2),
            "speedup": round(speedup, 2),
            "mutants_per_second_parallel": round(SAMPLES / t_par, 3),
            "gated": gated,
            "cold_plan_caches": True,
        },
    )

    if gated:
        assert speedup >= MIN_SPEEDUP, (
            f"{WORKERS}-worker sweep only {speedup:.2f}x faster than sequential "
            f"on {cpus} cores (required: {MIN_SPEEDUP}x)"
        )

    # Timed kernel for pytest-benchmark comparability: one mutant scored
    # end to end through the sequential path.
    benchmark.pedantic(
        lambda: run_monte_carlo(samples=1, seed=99, workers=1), rounds=1, iterations=1
    )
    benchmark.extra_info["speedup_vs_sequential"] = round(speedup, 2)
    benchmark.extra_info["workers"] = WORKERS
    benchmark.extra_info["cpus"] = cpus
    benchmark.extra_info["gated"] = gated
