"""The recordable workload registry and the record entry point.

A *workload* is a named, parameterized, fully deterministic run of the
guarded-execution pipeline: given the same name and parameters it
executes the identical command sequence under the virtual clock.  That
determinism is the whole replay story — a persisted trace names its
workload in the header, and replay simply records the workload again
and compares canonical bytes.

Registered workloads:

- ``solubility`` — the Fig. 1(b) production run on the Hein deck under
  modified RABIT + headless Extended Simulator;
- ``testbed`` — the safe Fig. 5 two-arm workflow;
- ``centrifuge`` — the testbed centrifugation leg (prepared vial);
- ``multi_door`` — the §V-C two-door simultaneous-access scenario;
- ``mutant`` — the monitored leg of Monte Carlo mutant
  ``(params: seed, index)``, a pure function of the pair;
- ``bug`` — one campaign bug under one configuration
  (``params: bug_id, config``);
- ``workflow`` — a declarative workflow preset run through the DAG
  executor (``params: preset`` plus any preset parameters, or
  ``spec`` = path to an exported spec file);
- ``fuzz`` — the monitored leg of random-DAG fuzz case
  ``(params: seed, index)``, a pure function of the pair.

The first four are rows of :data:`PRESET_WORKLOADS`: a workflow preset
plus monitor options, all run by :func:`run_preset_workload`.

Each workload returns its footer outcome and the command records of the
one proxy trace its run drove; :func:`record_workload` projects those
records into the run trace.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.trace.recorder import RunTrace, run_trace

#: A workload's result: its JSON-safe outcome (the trace footer) and the
#: command records of the run.
WorkloadResult = Tuple[Dict[str, Any], Sequence[Any]]
WorkloadFn = Callable[[Dict[str, Any]], WorkloadResult]

#: name -> function(params) -> (outcome, command records).
WORKLOADS: Dict[str, WorkloadFn] = {}


def _workload(name: str) -> Callable[[WorkloadFn], WorkloadFn]:
    def register(fn: WorkloadFn) -> WorkloadFn:
        WORKLOADS[name] = fn
        return fn

    return register


def _compiled(params: Dict[str, Any]) -> bool:
    """Whether this run uses compiled rulebase dispatch.

    Every workload honours an optional ``dispatch`` parameter
    (``"compiled"``, the default, or ``"interpreted"``) so the
    compiled-vs-interpreted differential suite can record both paths of
    the same workload and pin their verdict streams identical."""
    dispatch = params.get("dispatch", "compiled")
    if dispatch not in ("compiled", "interpreted"):
        raise KeyError(
            f"unknown dispatch mode {dispatch!r}; use 'compiled' or 'interpreted'"
        )
    return dispatch == "compiled"


def _bind_obs(rabit: Any) -> None:
    """Stamp spans with the run's virtual clock when observability is on
    (the recorded ``obs_span_id`` cross-links depend on span ids, which
    are deterministic because :func:`record_workload` resets OBS)."""
    from repro.obs import OBS

    if OBS.enabled:
        OBS.bind_clock(rabit.clock)


def _result_outcome(result: Any, commands: int) -> Dict[str, Any]:
    """The footer outcome shared by every workflow-shaped workload."""
    return {
        "completed": result.completed,
        "commands": commands,
        "alert": str(result.alert) if result.alert else None,
        "device_error": result.device_error,
    }


#: The preset-backed workloads: name -> (preset, ``RabitOptions.modified``
#: overrides).  Each runs its preset with default parameters; workload
#: names and parameters are recorded in trace headers, so they are fixed.
PRESET_WORKLOADS: Dict[str, Tuple[str, Dict[str, Any]]] = {
    "solubility": ("solubility", {"use_extended_simulator": True, "bypass_gui": True}),
    "testbed": ("testbed_fig5", {}),
    "centrifuge": ("centrifuge", {}),
    "multi_door": ("two_door", {}),
}


def run_preset_workload(name: str, params: Dict[str, Any]) -> WorkloadResult:
    """Run preset-backed workload *name*; returns its outcome and records."""
    from repro.core.monitor import RabitOptions
    from repro.workflow import build_context, build_preset, execute_dag

    preset, overrides = PRESET_WORKLOADS[name]
    dag = build_preset(preset)
    ctx = build_context(
        dag.deck,
        dag.deck_params,
        dag.prepare,
        options=RabitOptions.modified(compiled_dispatch=_compiled(params), **overrides),
    )
    _bind_obs(ctx.rabit)
    return _result_outcome(execute_dag(dag, ctx), len(ctx.trace)), ctx.trace


for _name in PRESET_WORKLOADS:
    WORKLOADS[_name] = partial(run_preset_workload, _name)


@_workload("mutant")
def _run_mutant(params: Dict[str, Any]) -> WorkloadResult:
    from repro.core.monitor import RabitOptions
    from repro.faults.montecarlo import run_mutant_monitored

    seed, index = int(params["seed"]), int(params["index"])
    description, result, records = run_mutant_monitored(
        seed, index,
        options=RabitOptions.modified(compiled_dispatch=_compiled(params)),
    )
    outcome = _result_outcome(result, len(result.executed_nodes))
    outcome["description"] = description
    outcome["detected"] = result.stopped_by_rabit
    return outcome, records


@_workload("bug")
def _run_bug(params: Dict[str, Any]) -> WorkloadResult:
    from repro.faults.campaign import CAMPAIGN_BUGS, run_bug_traced

    bug_id, config = str(params["bug_id"]), str(params["config"])
    by_id = {bug.bug_id: bug for bug in CAMPAIGN_BUGS}
    try:
        bug = by_id[bug_id]
    except KeyError:
        raise KeyError(
            f"unknown bug id {bug_id!r}; known: {sorted(by_id)}"
        ) from None
    outcome, records = run_bug_traced(
        bug, config, compiled_dispatch=_compiled(params)
    )
    return {
        "bug_id": bug_id,
        "config": config,
        "detected": outcome.detected,
        "alert": outcome.alert,
        "device_error": outcome.device_error,
        "completed": outcome.completed,
        "matches_paper": outcome.matches_paper,
    }, records


@_workload("workflow")
def _workflow_workload(params: Dict[str, Any]) -> WorkloadResult:
    """A declarative workflow run: a named preset (plus preset
    parameters), or ``spec`` = path to an exported spec file.  The
    footer carries the canonical journal digest, so replay equality
    covers the full command stream end to end."""
    import json

    from repro.core.monitor import RabitOptions
    from repro.workflow import (
        WorkflowDAG,
        build_context,
        execute_dag,
        journal_digest,
        run_journal,
    )

    remaining = dict(params)
    remaining.pop("dispatch", None)
    options = RabitOptions.modified(compiled_dispatch=_compiled(params))
    spec_path = remaining.pop("spec", None)
    if spec_path is not None:
        if remaining.pop("preset", None) is not None:
            raise KeyError("workflow workload takes 'preset' or 'spec', not both")
        dag = WorkflowDAG.from_spec(json.loads(Path(spec_path).read_text()))
        if remaining:
            raise KeyError(
                f"spec runs take no extra parameters, got {sorted(remaining)}"
            )
    else:
        from repro.workflow import build_preset

        name = str(remaining.pop("preset", "solubility"))
        dag = build_preset(name, remaining)
    ctx = build_context(
        deck=dag.deck,
        deck_params=dag.deck_params,
        prepare=dag.prepare,
        options=options,
    )
    _bind_obs(ctx.rabit)
    result = execute_dag(dag, ctx)
    journal = run_journal(
        ctx.trace,
        result.executed_nodes,
        result.completed,
        result.alert,
        result.device_error,
        result.recovered,
    )
    outcome = _result_outcome(result, len(ctx.trace))
    outcome["workflow"] = dag.name
    outcome["recovered"] = result.recovered
    outcome["journal_digest"] = journal_digest(journal)
    return outcome, ctx.trace


@_workload("fuzz")
def _run_fuzz(params: Dict[str, Any]) -> WorkloadResult:
    """The monitored leg of random-DAG fuzz case ``(seed, index)`` —
    pure in the pair, like the ``mutant`` workload."""
    from repro.core.monitor import RabitOptions
    from repro.workflow import build_context, execute_dag, random_dag

    seed, index = int(params["seed"]), int(params["index"])
    dag = random_dag(seed, index)
    ctx = build_context(
        deck=dag.deck,
        options=RabitOptions.modified(compiled_dispatch=_compiled(params)),
    )
    _bind_obs(ctx.rabit)
    result = execute_dag(dag, ctx)
    outcome = _result_outcome(result, len(ctx.trace))
    outcome["workflow"] = dag.name
    outcome["detected"] = result.stopped_by_rabit
    return outcome, ctx.trace


def record_workload(
    name: str, params: Optional[Dict[str, Any]] = None, obs: bool = False
) -> RunTrace:
    """Run registered workload *name*; returns the trace of its records.

    With ``obs=True`` the observability layer is reset and enabled for
    the duration of the run, so span numbering restarts from 1 and the
    recorded ``obs_span_id`` of every event is deterministic.  After the
    run, each event's ``intercept.command`` span is stamped with the
    trace id and the event's seq, so the link runs both ways."""
    try:
        fn = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(WORKLOADS)}"
        ) from None
    params = dict(params or {})
    from repro.obs import OBS

    if obs:
        OBS.reset()
        OBS.enable()
    try:
        outcome, records = fn(params)
    finally:
        if obs:
            OBS.disable()
    trace = run_trace(name, params, obs, records, outcome)
    spans = {span.span_id: span for span in OBS.collector.spans()}
    for seq, record in enumerate(records):
        span = spans.get(record.span_id)
        if span is not None:
            span.set(trace_id=trace.trace_id, trace_seq=seq)
    return trace


def dump_traces(
    runs: Iterable[Tuple[str, Dict[str, Any], str]], trace_dir: str
) -> List[Path]:
    """Record each ``(workload, params, file stem)`` run and write it to
    ``<trace_dir>/<stem>.trace.jsonl``; returns the paths written.

    The fault engines call this after a sweep for every case worth a
    replayable trace; each case is a pure function of its parameters,
    so the re-recorded run is exactly what the sweep executed, sharded
    or not."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for workload, params, stem in runs:
        path = directory / f"{stem}.trace.jsonl"
        record_workload(workload, params).write_jsonl(path)
        written.append(path)
    return written
