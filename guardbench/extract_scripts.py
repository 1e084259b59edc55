"""Regenerate ``data/base_scripts.json`` from the workflow presets.

The benchmark replays fixed command scripts so that its traffic stays
identical across commits, even when the presets that once produced the
scripts are rewritten.  This tool is run once, by hand, to extract them:

    python3 guardbench/extract_scripts.py

It runs every hein ``solubility`` and ``crystallization`` entry of
:func:`repro.workflow.presets.preset_matrix` through the monitored
workflow executor and records each traced device command, together with
the preset and parameters that produced it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.lab.hein import LOCATIONS  # noqa: E402
from repro.workflow.presets import preset_matrix, run_preset  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "base_scripts.json"
PRESETS = ("solubility", "crystallization")


def extract() -> dict:
    scripts = []
    for name, params in preset_matrix():
        if name not in PRESETS:
            continue
        _dag, ctx, _result = run_preset(name, params)
        if any(record.alert is not None for record in ctx.trace):
            raise RuntimeError(f"preset {name} {params} raised an alert")
        scripts.append(
            {
                "preset": name,
                "params": params,
                "commands": [
                    [record.device, record.method, list(record.args)]
                    for record in ctx.trace
                ],
            }
        )
    return {
        "source": "repro.workflow.presets.preset_matrix(), hein "
        + " and ".join(PRESETS)
        + " entries, monitored run on the hein deck",
        "locations": sorted(LOCATIONS),
        "free_locations": sorted(
            name for name, (kind, _dev, _xyz) in LOCATIONS.items() if kind == "free"
        ),
        "scripts": scripts,
    }


def render(doc: dict) -> str:
    """JSON with one command per line, so diffs of the data stay readable."""
    head = {key: value for key, value in doc.items() if key != "scripts"}
    lines = [json.dumps(head, indent=1)[:-2] + ',\n "scripts": [']
    for i, script in enumerate(doc["scripts"]):
        commands = ",\n".join(
            "   " + json.dumps(command) for command in script["commands"]
        )
        lines.append(
            f'  {{"preset": {json.dumps(script["preset"])}, '
            f'"params": {json.dumps(script["params"])}, "commands": [\n'
            f"{commands}\n  ]}}" + ("," if i < len(doc["scripts"]) - 1 else "")
        )
    lines.append(" ]\n}\n")
    return "\n".join(lines)


if __name__ == "__main__":
    OUT.write_text(render(extract()))
    print(f"wrote {OUT}")
