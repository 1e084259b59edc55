#!/usr/bin/env python3
"""The three-stage deployment framework (§II, Table I) as a process.

A lab engineer edits a workflow (here: a bad z coordinate in the
location table, the Bug-D edit class) and climbs it through RABIT's
stages: simulation first, then the low-fidelity testbed analog, then
production.  The defect is caught at the simulator stage — before
anything physical could break — while the safe baseline is promoted all
the way.

Run:  python examples/three_stage_validation.py
"""

from repro.lab.pipeline import ThreeStageValidator
from repro.workflow import build_preset


def bad_edit(deck) -> None:
    """The candidate change under test: grid pickup z 0.12 -> 0.02."""
    deck.world.locations.get("grid_a1").set_coord("ur3e", [0.30, -0.05, 0.02])


def main() -> None:
    validator = ThreeStageValidator()
    solubility = build_preset("solubility")

    print("Climbing the SAFE workflow through the stages:")
    safe = validator.validate(solubility)
    for outcome in safe.outcomes:
        print(f"  {outcome.describe()}")
    print(f"  promoted to production: {safe.promoted_to_production}\n")

    print("Climbing the DEFECTIVE edit (grid pickup z -> 0.02):")
    defective = validator.validate(solubility, mutate_deck=bad_edit)
    for outcome in defective.outcomes:
        print(f"  {outcome.describe()}")
    print(
        f"  rejected at: {defective.rejected_at.value}, "
        f"risk exposure: {defective.total_risk_exposure:g} "
        f"(zero — nothing physical ever ran the bad move)"
    )


if __name__ == "__main__":
    main()
