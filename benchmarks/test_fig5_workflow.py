"""Figs. 1(b) & 5 — the safe workflows themselves.

The baseline the whole evaluation rests on: the unmutated production
solubility experiment and testbed workflow complete with zero alerts and
zero ground-truth damage under every monitor configuration, and produce
the right chemistry.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.monitor import RabitOptions
from repro.workflow import run_preset


def test_safe_workflows_clean_everywhere(emit, benchmark):
    rows = []

    # Production solubility (Fig. 1(b)) under three configurations.
    for config, options in (
        ("initial", RabitOptions.initial()),
        ("modified", RabitOptions.modified()),
        ("modified+ES", RabitOptions.modified(use_extended_simulator=True)),
    ):
        _, ctx, result = run_preset("solubility", options=options)
        assert result.completed and ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()
        rows.append(
            ["solubility (Fig. 1b)", config, len(ctx.trace),
             "completed, 0 alerts, 0 damage"]
        )

    # Chemistry sanity on one run.
    _, ctx, _ = run_preset("solubility", {"amount_mg": 5, "initial_solvent_ml": 4})
    vial = ctx.deck.vials["vial_1"]
    assert vial.contents.solid_mg == pytest.approx(5.0)
    assert vial.contents.liquid_ml == pytest.approx(8.0)
    rows.append(
        ["solubility chemistry", "-", "-", f"{vial.contents.solid_mg:g} mg solid, "
         f"{vial.contents.liquid_ml:g} mL solvent, back at {vial.resting_at}"]
    )

    # Testbed workflow (Fig. 5) with and without ES.
    for use_es in (False, True):
        options = RabitOptions.modified(use_extended_simulator=use_es)
        _, ctx, result = run_preset("testbed_fig5", options=options)
        assert result.completed and ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()
        rows.append(
            ["testbed (Fig. 5)", "with ES" if use_es else "plain", len(ctx.trace),
             "completed, 0 alerts, 0 damage"]
        )

    rendered = format_table(
        ["workflow", "configuration", "commands", "outcome"],
        rows,
        title="Safe workflows: zero false positives in every configuration",
    )
    emit("fig5_workflow", rendered)

    # Timed kernel: the production workflow end to end under RABIT.
    def one_production_run():
        return run_preset("solubility")[2]

    result = benchmark.pedantic(one_production_run, rounds=2, iterations=1)
    assert result.completed
