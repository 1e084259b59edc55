"""The three-stage validation pipeline (§II, Table I) as a process.

The paper's framework is not just a table — it is a *procedure*: "we use
a three-stage framework for detecting rule violations: (i) simulation,
for quick testing of individual robot arm movements; (ii) a low-fidelity,
inexpensive testbed ...; and lastly, (iii) testing in the production
environment."  A new or edited workflow climbs the stages; a defect
caught early costs nothing, a defect that survives to production risks
real equipment.

:class:`ThreeStageValidator` runs one workflow DAG (a Hein-deck preset
such as ``solubility``) through all three stages on progressively
riskier decks (same layout, stage-specific noise and
damage economics from :data:`~repro.lab.stage.STAGE_PROFILES`) and stops
climbing at the first stage that rejects it.  The result quantifies what
the staging bought: the *risk exposure* (damage events weighted by the
stage's damage cost) that early detection avoided.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.monitor import RabitOptions
from repro.lab.hein import HeinDeck
from repro.lab.stage import STAGE_PROFILES, Stage
from repro.workflow import WorkflowDAG, WorkflowRunResult, run_dag

#: How each stage is realized on the Hein layout: actuation noise from the
#: stage profile, and whether the Extended Simulator assists (it is the
#: whole point of the simulation stage; the lab also keeps it attached on
#: the testbed, but not in production where its GUI overhead bites).
_STAGE_SETUP: Dict[Stage, Dict[str, object]] = {
    Stage.SIMULATOR: {"use_es": True},
    Stage.TESTBED: {"use_es": True},
    Stage.PRODUCTION: {"use_es": False},
}

DeckMutator = Callable[[HeinDeck], None]


@dataclass
class StageOutcome:
    """What happened when the workflow ran at one stage."""

    stage: Stage
    passed: bool
    result: WorkflowRunResult
    damage_events: int
    #: Damage events weighted by the stage's damage cost (Table I's "risk
    #: of damage" axis, made quantitative).
    risk_exposure: float

    def describe(self) -> str:
        status = "PASS" if self.passed else "REJECTED"
        detail = ""
        if self.result.alert is not None:
            detail = f" — {self.result.alert}"
        elif self.result.device_error is not None:
            detail = f" — device error: {self.result.device_error}"
        return f"{self.stage.value}: {status}{detail}"


@dataclass
class PipelineResult:
    """Outcome of one climb through the stages."""

    outcomes: List[StageOutcome] = field(default_factory=list)

    @property
    def promoted_to_production(self) -> bool:
        """Whether the workflow passed every stage."""
        return bool(self.outcomes) and all(o.passed for o in self.outcomes)

    @property
    def rejected_at(self) -> Optional[Stage]:
        """First stage that rejected the workflow, if any."""
        for outcome in self.outcomes:
            if not outcome.passed:
                return outcome.stage
        return None

    @property
    def total_risk_exposure(self) -> float:
        """Accumulated weighted damage across the stages actually run."""
        return sum(o.risk_exposure for o in self.outcomes)


class ThreeStageValidator:
    """Climb a workflow through simulator -> testbed -> production."""

    def __init__(
        self,
        options: Optional[RabitOptions] = None,
        stages: Sequence[Stage] = (Stage.SIMULATOR, Stage.TESTBED, Stage.PRODUCTION),
    ) -> None:
        self._options = options or RabitOptions.modified()
        self._stages = tuple(stages)

    def validate(
        self,
        dag: WorkflowDAG,
        mutate_deck: Optional[DeckMutator] = None,
    ) -> PipelineResult:
        """Run Hein-deck workflow *dag* at each stage until one rejects it.

        ``mutate_deck`` applies the candidate change under test (e.g. an
        edited location table) to each stage's fresh deck — the same edit
        is what climbs the stages, exactly like a workflow change in the
        lab.
        """
        if dag.deck != "hein":
            raise ValueError(f"the stages run on the Hein deck, not {dag.deck!r}")
        pipeline = PipelineResult()
        for stage in self._stages:
            outcome = self._run_stage(stage, dag, mutate_deck)
            pipeline.outcomes.append(outcome)
            if not outcome.passed:
                break
        return pipeline

    def _run_stage(
        self,
        stage: Stage,
        dag: WorkflowDAG,
        mutate_deck: Optional[DeckMutator],
    ) -> StageOutcome:
        profile = STAGE_PROFILES[stage]
        options = self._options
        if _STAGE_SETUP[stage]["use_es"]:
            options = replace(options, use_extended_simulator=True)

        def stage_deck(ctx: Any) -> None:
            ctx.deck.ur3e._noise_sigma = profile.position_noise_sigma  # noqa: SLF001
            if mutate_deck is not None:
                mutate_deck(ctx.deck)

        ctx, result = run_dag(dag, options=options, before_run=stage_deck)
        damage = len(ctx.world.damage_log)
        passed = result.completed and ctx.rabit.alert_count == 0 and damage == 0
        return StageOutcome(
            stage=stage,
            passed=passed,
            result=result,
            damage_events=damage,
            risk_exposure=damage * profile.damage_cost,
        )
