#!/usr/bin/env python3
"""Adapting RABIT to a new lab: the Berlinguette deck (§V-B) end-to-end.

Shows the full adaptation path the paper describes for a second
self-driving lab: categorize every device into the four RABIT types,
author the JSON configuration (validated by the schema checker the pilot
study wished for), run a spray-coating workflow under the *general*
rulebase only, and mine the lab's own traces for candidate rules.

Run:  python examples/adapt_new_lab.py
"""

import json

from repro.analysis.report import format_table
from repro.core.config import parse_config_text, validate_config
from repro.lab.berlinguette import build_berlinguette_deck
from repro.rad.generator import generate_combined
from repro.rad.mining import mine_and_classify, mine_door_rules
from repro.workflow import run_preset


def main() -> None:
    deck = build_berlinguette_deck()

    # 1. Device categorization — every device fits the four types.
    print(
        format_table(
            ["device", "RABIT type"],
            sorted(deck.categorization().items()),
            title="Berlinguette device categorization (the §V-B mapping)",
        )
    )

    # 2. The JSON configuration round-trips through the validator.
    document = parse_config_text(json.dumps(deck.config))
    issues = validate_config(document)
    errors = [i for i in issues if i.severity == "error"]
    print(f"\nconfig validation: {len(errors)} errors, {len(issues)} issues total")

    # 3. A spray-coating run under the unchanged *general* rulebase.
    _dag, ctx, result = run_preset("spray_coating")
    print(
        f"spray-coating workflow: completed={result.completed}, "
        f"alerts={ctx.rabit.alert_count} (general rules only, no Hein customs)"
    )

    # 4. Mine both labs' traces; the Hein-only invariant shows up custom.
    print("\nMining traces from both labs (takes a few seconds)...")
    dataset = generate_combined(hein_sessions=5, berlinguette_sessions=4)
    rules = mine_and_classify(dataset)
    custom = [r for r in rules if r.scope == "custom" and r.lab == "hein"]
    solid_before_liquid = [
        r
        for r in custom
        if r.antecedent[0] == "start_dosing" and r.consequent[0] == "dose_liquid"
    ]
    print(f"  mined {len(rules)} classified rules; {len(custom)} custom to Hein")
    for rule in solid_before_liquid:
        print(f"  headline custom rule recovered: {rule.describe()}")
    for door_rule in mine_door_rules(dataset):
        print(f"  door invariant: {door_rule.describe()}")


if __name__ == "__main__":
    main()
