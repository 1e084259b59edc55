#!/usr/bin/env python3
"""The automated solubility measurement of Fig. 1(b), under RABIT.

Runs the full production workflow — solid dosing behind the glass door,
solvent dosing on the hotplate, the dissolution loop, and the
centrifugation leg that exercises the Hein Lab's custom rules — and
prints the resulting chemistry and the (empty) alert and damage logs.

Run:  python examples/solubility_experiment.py
"""

from repro.workflow import build_context, build_preset, execute_dag


def main() -> None:
    workflow = build_preset(
        "solubility",
        {
            "amount_mg": 5.0,
            "initial_solvent_ml": 4.0,
            "temperature": 60.0,
            "dissolution_rounds": 2,
            "centrifuge_rpm": 3000.0,
        },
    )
    ctx = build_context(workflow.deck, workflow.deck_params, workflow.prepare)
    print(f"Executing {len(workflow.nodes)} script lines...")
    result = execute_dag(workflow, ctx)

    print(f"completed: {result.completed}")
    print(f"RABIT alerts: {ctx.rabit.alert_count}  (the paper: zero false positives)")
    print(f"damage events: {len(ctx.world.damage_log)}")

    vial = ctx.deck.vials["vial_1"]
    print(
        f"vial_1: {vial.contents.solid_mg:g} mg solid, "
        f"{vial.contents.liquid_ml:g} mL solvent, resting at {vial.resting_at}, "
        f"stoppered: {vial.stoppered}"
    )

    print("\nLast few traced commands:")
    for record in ctx.trace[-6:]:
        print(f"  {record}")


if __name__ == "__main__":
    main()
