"""§IV category 2 — arm-arm coordination.

Reproduces the two findings:

1. the frame-calibration experiment: fitting a rigid transform between
   the two testbed arms' coordinate systems leaves ~3 cm mean residual
   (the reason the lab keeps separate frames), and
2. both multiplexing policies *prevent* Bug B, which plain RABIT misses.
"""


from repro.analysis.report import format_table
from repro.faults.campaign import CAMPAIGN_BUGS
from repro.faults.mutation import apply_mutations
from repro.testbed.calibration import run_calibration_experiment
from repro.testbed.deck import attach_space_multiplexing, attach_time_multiplexing
from repro.workflow import build_context, build_preset, execute_dag

BUG_B = next(bug for bug in CAMPAIGN_BUGS if bug.bug_id == "MH4")


def _run_bug_b(attach=None):
    dag = build_preset(BUG_B.workflow)
    ctx = build_context(dag.deck, dag.deck_params, dag.prepare)
    if attach is not None:
        attach(ctx.rabit, ctx.deck)
    result = execute_dag(apply_mutations(dag, ctx.world, BUG_B.mutations), ctx)
    collisions = [d for d in ctx.world.damage_log if d.kind == "arm_collision"]
    return result, collisions


def test_calibration_and_multiplexing(emit, benchmark):
    calibration = run_calibration_experiment()
    assert 0.02 <= calibration.mean_error <= 0.045  # the paper's ~3 cm

    plain, plain_collisions = _run_bug_b()
    timed, timed_collisions = _run_bug_b(attach_time_multiplexing)
    spaced, spaced_collisions = _run_bug_b(attach_space_multiplexing)

    assert not plain.stopped_by_rabit and plain_collisions
    assert timed.stopped_by_rabit and not timed_collisions
    assert spaced.stopped_by_rabit and not spaced_collisions

    rows = [
        [
            "calibrated common frame",
            f"mean residual {calibration.mean_error * 100:.1f} cm "
            f"(max {calibration.max_error * 100:.1f} cm)",
            "abandoned (paper: ~3 cm error)",
        ],
        ["plain RABIT vs Bug B", f"{len(plain_collisions)} arm collision(s)", "missed"],
        ["time multiplexing vs Bug B", str(timed.alert), "prevented"],
        ["space multiplexing vs Bug B", str(spaced.alert), "prevented"],
    ]
    rendered = format_table(
        ["approach", "measurement", "outcome"],
        rows,
        title="§IV arm-arm coordination: calibration error and multiplexing",
    )
    emit("multiplexing", rendered)

    # Timed kernel: the calibration fit (Kabsch over the fiducial set).
    result = benchmark(run_calibration_experiment)
    benchmark.extra_info["mean_error_cm"] = round(result.mean_error * 100, 2)
