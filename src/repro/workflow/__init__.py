"""Declarative workflows: step registry, DAG engine, presets, fuzzing.

The one definition of every experiment workflow in the repository — the
campaign, Monte Carlo, latency, RAD, pipeline and trace workloads all
run presets from here:

- :mod:`repro.workflow.registry` — typed ``@step`` registration;
- :mod:`repro.workflow.steps` — the built-in step library (every lab
  primitive, with the call conventions of the paper's scripts);
- :mod:`repro.workflow.dag` — the success/failure-edge graph model and
  its canonical ``repro.workflow/v1`` spec serialization;
- :mod:`repro.workflow.context` — declarative deck wiring;
- :mod:`repro.workflow.executor` — the deterministic DAG walk through
  the interceptor/monitor pipeline, and :func:`run_dag`, the one runner
  of a DAG on its own deck;
- :mod:`repro.workflow.journal` — the canonical run journal (the
  byte-equality witness of the differential tests);
- :mod:`repro.workflow.presets` — the named, parameterized workflows
  (Fig. 1(b) solubility, Fig. 5 testbed, ...) plus the Bug A/B/C
  variants and the scenario matrix, and :func:`load_dag`, the one
  loader of a DAG from a preset or a spec file;
- :mod:`repro.workflow.fuzz` — seeded random-DAG generation feeding
  ``faults.montecarlo``.

Importing the package loads the built-in steps and presets into the
default registry, so ``python -m repro workflow list`` and spec loading
always see the full catalog.
"""

from repro.workflow.registry import (  # noqa: F401
    REGISTRY,
    StepError,
    StepParam,
    StepRegistry,
    StepSpec,
    step,
)
from repro.workflow import steps  # noqa: F401  (populates REGISTRY)
from repro.workflow.context import WorkflowContext, build_context  # noqa: F401
from repro.workflow.dag import (  # noqa: F401
    SCHEMA,
    WorkflowDAG,
    WorkflowEdge,
    WorkflowError,
    WorkflowNode,
)
from repro.workflow.executor import WorkflowRunResult, execute_dag, run_dag  # noqa: F401
from repro.workflow.journal import (  # noqa: F401
    JOURNAL_SCHEMA,
    command_entry,
    journal_bytes,
    journal_digest,
    run_journal,
)
from repro.workflow.presets import (  # noqa: F401
    PRESETS,
    Preset,
    build_preset,
    list_presets,
    load_dag,
    preset,
    preset_matrix,
    run_preset,
)
from repro.workflow.fuzz import random_dag, score_dag  # noqa: F401

__all__ = [
    "REGISTRY",
    "StepError",
    "StepParam",
    "StepRegistry",
    "StepSpec",
    "step",
    "WorkflowContext",
    "build_context",
    "SCHEMA",
    "WorkflowDAG",
    "WorkflowEdge",
    "WorkflowError",
    "WorkflowNode",
    "WorkflowRunResult",
    "execute_dag",
    "run_dag",
    "JOURNAL_SCHEMA",
    "command_entry",
    "journal_bytes",
    "journal_digest",
    "run_journal",
    "PRESETS",
    "Preset",
    "build_preset",
    "list_presets",
    "load_dag",
    "preset",
    "preset_matrix",
    "run_preset",
    "random_dag",
    "score_dag",
]
