"""§II / Table I as a process — the three-stage validation pipeline.

Measures what the staging methodology buys: a defective workflow edit is
rejected at the simulator stage with zero risk exposure, while the
counterfactual (running the same defect straight in production with the
monitor in fail-safe logging mode) accrues damage weighted by the
production damage cost.
"""


from repro.analysis.report import format_table
from repro.lab.pipeline import ThreeStageValidator
from repro.lab.stage import STAGE_PROFILES, Stage
from repro.workflow import build_context, build_preset, execute_dag

SOLUBILITY = build_preset("solubility")


def _bad_edit(deck):
    deck.world.locations.get("grid_a1").set_coord("ur3e", [0.30, -0.05, 0.02])


def test_three_stage_pipeline(emit, benchmark):
    validator = ThreeStageValidator()

    safe = validator.validate(SOLUBILITY)
    assert safe.promoted_to_production and safe.total_risk_exposure == 0.0

    defective = validator.validate(SOLUBILITY, mutate_deck=_bad_edit)
    assert defective.rejected_at is Stage.SIMULATOR
    assert defective.total_risk_exposure == 0.0

    # Counterfactual: the same defect pushed straight to production with
    # no monitor at all (the pre-RABIT world the paper motivates).
    ctx = build_context(SOLUBILITY.deck, monitored=False)
    _bad_edit(ctx.deck)
    execute_dag(SOLUBILITY, ctx)
    unmonitored_damage = len(ctx.world.damage_log)
    production_cost = STAGE_PROFILES[Stage.PRODUCTION].damage_cost
    counterfactual_risk = unmonitored_damage * production_cost
    assert unmonitored_damage > 0

    rows = [
        ["safe workflow", " -> ".join(o.describe() for o in safe.outcomes), "0"],
        [
            "defective edit (staged)",
            defective.outcomes[0].describe(),
            f"{defective.total_risk_exposure:g}",
        ],
        [
            "defective edit (straight to production, no monitor)",
            f"{unmonitored_damage} damage event(s)",
            f"{counterfactual_risk:g}",
        ],
    ]
    rendered = format_table(
        ["candidate change", "pipeline outcome", "risk exposure"],
        rows,
        title="Three-stage validation pipeline (Table I as a process)",
    )
    emit("three_stage_pipeline", rendered)

    # Timed kernel: one simulator-stage gate check of the safe workflow.
    sim_only = ThreeStageValidator(stages=(Stage.SIMULATOR,))
    result = benchmark.pedantic(
        lambda: sim_only.validate(SOLUBILITY), rounds=2, iterations=1
    )
    assert result.promoted_to_production
    benchmark.extra_info["risk_avoided"] = counterfactual_risk
