"""Shared plan cache: how often a guarded move replays a plan instead of
running the IK cascade.

Every ``ArmKinematics`` of one mounted chain (arm profile plus base
transform) shares a bounded cache of ``plan_move`` outcomes, so the
Extended Simulator, the device, every fresh deck and every service
session replay one plan per (start posture, target, speed).  Two numbers:

- **gate** (deterministic): the ``solubility`` preset run on a second
  fresh deck runs zero IK cascades, because the first deck planned
  every one of its moves;
- **report**: the hit ratio over the whole preset matrix, from an empty
  cache on a single pass and on a second (cycled) pass, so the gain is
  not read off a pool that repeats itself.
"""

from repro.analysis.report import format_table
from repro.kinematics import arm
from repro.serve.session import default_serve_options
from repro.workflow.presets import preset_matrix, run_preset


def _empty_plan_caches():
    for mount in arm._MOUNTS.values():
        mount.plans.clear()


def _counting(monkeypatch):
    """Count ``plan_move`` calls and the IK cascades (cache misses) behind them."""
    counts = {"plans": 0, "cascades": 0}
    plan_move, solve = arm.ArmKinematics.plan_move, arm.ArmKinematics._plan_move

    def counted_plan_move(self, *args, **kwargs):
        counts["plans"] += 1
        return plan_move(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        counts["cascades"] += 1
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(arm.ArmKinematics, "plan_move", counted_plan_move)
    monkeypatch.setattr(arm.ArmKinematics, "_plan_move", counted_solve)
    return counts


def _matrix_pass(counts):
    """(plan_move calls, IK cascades) of one pass over the preset matrix."""
    plans, cascades = counts["plans"], counts["cascades"]
    for name, params in preset_matrix():
        run_preset(name, params, options=default_serve_options())
    return counts["plans"] - plans, counts["cascades"] - cascades


def test_plan_cache(emit, trend, monkeypatch):
    counts = _counting(monkeypatch)
    options = default_serve_options()

    _empty_plan_caches()
    runs = []
    for _ in range(2):  # each run_preset builds a fresh deck
        before = dict(counts)
        _dag, _ctx, result = run_preset("solubility", options=options)
        assert result.completed, f"solubility did not complete: {result.alert}"
        runs.append((counts["plans"] - before["plans"], counts["cascades"] - before["cascades"]))

    _empty_plan_caches()
    single = _matrix_pass(counts)
    cycled = _matrix_pass(counts)

    def ratio(plans, cascades):
        return 1.0 - cascades / plans if plans else 0.0

    rows = [
        ["solubility, first deck", runs[0][0], runs[0][1], f"{ratio(*runs[0]):.3f}"],
        ["solubility, second deck", runs[1][0], runs[1][1], f"{ratio(*runs[1]):.3f}"],
        ["preset matrix, single pass", single[0], single[1], f"{ratio(*single):.3f}"],
        ["preset matrix, cycled pass", cycled[0], cycled[1], f"{ratio(*cycled):.3f}"],
    ]
    emit(
        "plan_cache",
        format_table(
            ["run (empty cache first)", "plan_move calls", "IK cascades", "hit ratio"],
            rows,
            title=f"Shared plan cache ({len(preset_matrix())} preset matrix entries, "
            f"bound {arm.PLAN_CACHE_SIZE} plans per mounted chain)",
        ),
    )
    trend(
        "plan_cache",
        {
            "solubility_second_deck_cascades": runs[1][1],
            "matrix_single_pass_hit_ratio": round(ratio(*single), 4),
            "matrix_cycled_hit_ratio": round(ratio(*cycled), 4),
            "matrix_plan_calls": single[0],
            "matrix_single_pass_cascades": single[1],
        },
    )

    assert runs[0][1] >= 1
    assert runs[1][0] == runs[0][0]
    # The gate: the second fresh deck replays every plan.
    assert runs[1][1] == 0, f"second solubility deck ran {runs[1][1]} IK cascades"
    assert cycled[1] == 0
