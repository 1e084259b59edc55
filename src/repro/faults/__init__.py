"""Fault injection: the §IV "naive programmer" campaign.

The paper's collaborator made 16 unsafe program changes on the testbed by
changing command arguments, deleting commands, or reordering commands
(plus one hard-coded-coordinate edit, Fig. 6's Bug D).  This package
reproduces that campaign deterministically:

- :mod:`repro.faults.mutation` -- the mutation operators, as data:
  node edits of a :mod:`repro.workflow.presets` DAG and location-table
  edits;
- :mod:`repro.faults.campaign` -- the 16 concrete bugs (edits of the
  ``testbed_fig5`` and ``centrifuge`` presets) with the paper's Table V
  severity labels, and the runner that evaluates them against any RABIT
  configuration (initial / modified / modified + Extended Simulator);
- :mod:`repro.faults.montecarlo` -- random single-edit mutants of the
  ``testbed_fig5`` preset scored against unmonitored ground truth (the
  "large bug dataset" study of §IV), with per-mutant RNG derived from
  ``(seed, index)``.

Both runners accept ``workers=`` to shard their independent runs over a
:mod:`repro.parallel` process pool with results identical to the
sequential path.
"""

from repro.faults.mutation import (
    Mutation,
    DeleteLine,
    ReplaceLine,
    InsertAfter,
    SwapLines,
    MutateLocation,
    apply_mutations,
)
from repro.faults.montecarlo import (
    MonteCarloReport,
    MutantOutcome,
    run_monte_carlo,
)
from repro.faults.campaign import (
    InjectedBug,
    BugOutcome,
    CampaignResult,
    CAMPAIGN_BUGS,
    RABIT_CONFIGS,
    run_bug,
    run_campaign,
)

__all__ = [
    "Mutation",
    "DeleteLine",
    "ReplaceLine",
    "InsertAfter",
    "SwapLines",
    "MutateLocation",
    "apply_mutations",
    "InjectedBug",
    "BugOutcome",
    "CampaignResult",
    "CAMPAIGN_BUGS",
    "RABIT_CONFIGS",
    "run_bug",
    "run_campaign",
    "MonteCarloReport",
    "MutantOutcome",
    "run_monte_carlo",
]
