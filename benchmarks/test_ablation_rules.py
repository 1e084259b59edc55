"""Ablation — which rule carries which campaign detection.

The rulebase is the design artifact DESIGN.md calls out: every detected
campaign bug should be attributable to exactly the rule its alert names,
and knocking that rule out should turn the detection into a miss (no
hidden redundancy) — except where a second rule covers the same hazard,
which the ablation makes visible.
"""

import re


from repro.analysis.report import format_table
from repro.faults.campaign import CAMPAIGN_BUGS, run_bug, run_bug_matrix

#: bug id -> rule its modified-RABIT alert names (from the campaign).
EXPECTED_CARRIER = {
    "L1": "G8",
    "ML1": "G3",
    "MH1": "G3",
    "MH2": "G3",
    "MH5": "G3",
    "MH6": "G3",
    "H1": "G1",
    "H2": "G2",
    "H3": "G9",
    "H4": "G10",
    "H5": "G11",
    "H6": "C4",
}


def test_rule_knockout_ablation(emit, campaign_result, benchmark):
    detected = {
        o.bug.bug_id: o
        for o in campaign_result.outcomes
        if o.config == "modified" and o.detected
    }
    assert set(detected) == set(EXPECTED_CARRIER)

    carriers = {}
    for bug_id, outcome in sorted(detected.items()):
        match = re.search(r"\[([A-Z0-9-]+)\]", outcome.alert or "")
        carrier = match.group(1) if match else "?"
        assert carrier == EXPECTED_CARRIER[bug_id], (bug_id, outcome.alert)
        carriers[bug_id] = carrier

    # The knockout runs are independent (bug, config, exclude_rules)
    # triples — the ablation shape the sharded engine fans out.  One
    # worker per CPU; results come back in spec order either way.
    specs = [
        (next(b for b in CAMPAIGN_BUGS if b.bug_id == bug_id), "modified",
         (carrier,))
        for bug_id, carrier in sorted(carriers.items())
    ]
    knockouts = run_bug_matrix(specs, workers=None)

    rows = []
    for (bug_id, carrier), knocked in zip(sorted(carriers.items()), knockouts):
        if knocked.detected:
            # Defense in depth: another layer covers the hazard; name it.
            other = re.search(r"\[([A-Z0-9-]+)\]", knocked.alert or "")
            if other:
                result = f"still detected by {other.group(1)}"
            elif "device_malfunction" in (knocked.alert or ""):
                result = "still detected by the expected-vs-actual check"
            else:
                result = "still detected (trajectory check)"
        else:
            result = "missed (rule is load-bearing)"
        rows.append([bug_id, carrier, result])

    rendered = format_table(
        ["bug", "detecting rule", "after knocking the rule out"],
        rows,
        title="Ablation: rule knockout vs. campaign detections (modified RABIT)",
    )
    emit("ablation_rules", rendered)

    # Every knockout must at minimum change the attribution; most should
    # become outright misses.
    missed = [r for r in rows if "missed" in r[2]]
    assert len(missed) >= 8, rows

    # Timed kernel: one knockout run.
    bug_h1 = next(b for b in CAMPAIGN_BUGS if b.bug_id == "H1")
    outcome = benchmark.pedantic(
        lambda: run_bug(bug_h1, "modified", exclude_rules=("G1",)),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["load_bearing_rules"] = len(missed)
