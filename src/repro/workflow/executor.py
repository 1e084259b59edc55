"""The deterministic DAG executor.

Drives a validated :class:`~repro.workflow.dag.WorkflowDAG` through the
interceptor/monitor pipeline one script statement per node: every step
issues guarded proxy calls, a :class:`SafetyViolation` is a RABIT stop,
an :class:`UnreachableTargetError` is a device fault (the Ned2
behaviour on unplannable trajectories), and any other exception
propagates.  A node with a ``failure`` edge turns a fault into a
declared recovery jump (``recovered`` is flagged and the *first* alert
retained); without one, the run ends on the fault.

Determinism: the executor adds no randomness and no wall-clock reads;
given the same DAG, registry, and context wiring it issues the identical
command sequence under the virtual clock, which is what makes workflow
runs trace-recordable and replayable.  Each node executes inside an
``workflow.node`` obs span when observability is enabled.

:func:`run_dag` is the one way to run a DAG on its own deck: it wires
the deck the DAG names (with its deck parameters and vial preparation)
and executes the DAG there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.core.clock import VirtualClock
from repro.core.errors import Alert, SafetyViolation
from repro.core.monitor import RabitOptions
from repro.kinematics.arm import UnreachableTargetError
from repro.obs import OBS
from repro.workflow.context import WorkflowContext, build_context
from repro.workflow.dag import WorkflowDAG, WorkflowError
from repro.workflow.registry import REGISTRY, StepRegistry

__all__ = ["WorkflowRunResult", "execute_dag", "run_dag"]


@dataclass
class WorkflowRunResult:
    """Outcome of one DAG execution."""

    completed: bool
    executed_nodes: List[str] = field(default_factory=list)
    alert: Optional[Alert] = None
    device_error: Optional[str] = None
    #: True iff a failure edge was taken (the run continued past a fault).
    recovered: bool = False

    @property
    def stopped_by_rabit(self) -> bool:
        """Whether RABIT raised an alert during the run."""
        return self.alert is not None

    @property
    def stopped_by_device(self) -> bool:
        """Whether a device exception (not RABIT) fired during the run."""
        return self.device_error is not None


def execute_dag(
    dag: WorkflowDAG,
    ctx: WorkflowContext,
    registry: StepRegistry = REGISTRY,
    max_nodes: int = 10_000,
) -> WorkflowRunResult:
    """Execute *dag* against the wired *ctx*; returns the run result.

    Validates the whole graph (structure + step bindings) before the
    first command, so a malformed workflow never half-runs.  Node ids
    are appended to ``executed_nodes`` only after the step succeeds.
    """
    dag.validate(registry)
    executed: List[str] = []
    alert: Optional[Alert] = None
    device_error: Optional[str] = None
    recovered = False
    node_id: Optional[str] = dag.entry
    visited = 0
    while node_id is not None:
        if visited >= max_nodes:  # pragma: no cover - validate() forbids cycles
            raise WorkflowError(
                f"workflow {dag.name!r} exceeded {max_nodes} node executions"
            )
        visited += 1
        node = dag.nodes[node_id]
        spec = registry.get(node.step)
        bound = spec.bind(node.params)
        failed = False
        with OBS.span("workflow.node", node=node.id, step=node.step):
            try:
                spec.fn(ctx, **bound)
            except SafetyViolation as stop:
                failed = True
                if alert is None:
                    alert = stop.alert
            except UnreachableTargetError as err:
                failed = True
                if device_error is None:
                    device_error = str(err)
        if failed:
            recovery = dag.successor(node_id, "failure")
            if recovery is None:
                return WorkflowRunResult(
                    completed=False,
                    executed_nodes=executed,
                    alert=alert,
                    device_error=device_error,
                    recovered=recovered,
                )
            recovered = True
            node_id = recovery
        else:
            executed.append(node_id)
            node_id = dag.successor(node_id, "success")
    return WorkflowRunResult(
        completed=alert is None and device_error is None,
        executed_nodes=executed,
        alert=alert,
        device_error=device_error,
        recovered=recovered,
    )


def run_dag(
    dag: WorkflowDAG,
    *,
    options: Optional[RabitOptions] = None,
    monitored: bool = True,
    clock: Optional[VirtualClock] = None,
    exclude_rules: Sequence[str] = (),
    before_run: Optional[Callable[[WorkflowContext], Any]] = None,
    registry: StepRegistry = REGISTRY,
) -> Tuple[WorkflowContext, WorkflowRunResult]:
    """Wire *dag*'s own deck and execute *dag* on it.

    The deck is the one the DAG names, built with the DAG's deck
    parameters and vial preparation; *options*, *monitored*, *clock* and
    *exclude_rules* go to :func:`~repro.workflow.context.build_context`.
    *before_run*, when given, receives the wired context before the
    first node runs: the fault injector applies its mutations to the
    wired world there, and the trace workloads bind observability to the
    run's clock.  Returns ``(context, result)``.
    """
    ctx = build_context(
        dag.deck,
        dag.deck_params,
        dag.prepare,
        options=options,
        clock=clock,
        monitored=monitored,
        exclude_rules=exclude_rules,
    )
    if before_run is not None:
        before_run(ctx)
    return ctx, execute_dag(dag, ctx, registry)
