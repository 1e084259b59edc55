"""The guard's import path stays free of the fault and workflow stack.

The guard service child and the in-process guard import ``repro.serve``
and a deck module; neither needs the campaign, the workflow engine, the
stage pipeline, the scenarios, the run-trace recorder and replay, or any
deck it does not open.  Loading them anyway costs start-up time and
resident memory in every service process, so this pins the boundary in
a fresh interpreter.  The service child starts through
``repro.cli.main``, so building the CLI's parser loads no other
``repro`` module either: each subcommand imports what it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

FORBIDDEN = (
    "repro.faults",
    "repro.workflow",
    "repro.lab.pipeline",
    "repro.testbed",
    "repro.lab.two_door",
    "repro.lab.berlinguette",
    "repro.lab.scenarios",
    "repro.trace.recorder",
    "repro.trace.replay",
    "repro.trace.schema",
    "repro.trace.workloads",
)


def _loaded_after(statements: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after *statements*."""
    code = (
        "import json, sys\n"
        f"{statements}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    ).stdout
    return json.loads(out)


def test_building_the_cli_parser_loads_only_the_cli():
    loaded = _loaded_after("import repro.cli\nrepro.cli.build_parser()")
    assert loaded == ["repro", "repro.cli"]


def test_serve_and_hein_deck_load_no_fault_or_workflow_module():
    loaded = _loaded_after("import repro.serve, repro.lab.hein")
    assert "repro.serve" in loaded and "repro.lab.hein" in loaded
    leaked = [
        m for m in loaded
        if any(m == prefix or m.startswith(prefix + ".") for prefix in FORBIDDEN)
    ]
    assert leaked == []
