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
"""

from __future__ import annotations

from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.trace.recorder import TRACE, RunTrace

WorkloadFn = Callable[[Dict[str, Any]], Dict[str, Any]]

#: name -> function(params) -> JSON-safe outcome dict (the trace footer).
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


def run_preset_workload(name: str, params: Dict[str, Any]) -> Dict[str, Any]:
    """Run preset-backed workload *name*; returns its footer outcome."""
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
    return _result_outcome(execute_dag(dag, ctx), len(ctx.trace))


for _name in PRESET_WORKLOADS:
    WORKLOADS[_name] = partial(run_preset_workload, _name)


@_workload("mutant")
def _run_mutant(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.core.monitor import RabitOptions
    from repro.faults.montecarlo import run_mutant_monitored

    seed, index = int(params["seed"]), int(params["index"])
    description, result = run_mutant_monitored(
        seed, index,
        options=RabitOptions.modified(compiled_dispatch=_compiled(params)),
    )
    outcome = _result_outcome(result, len(result.executed_nodes))
    outcome["description"] = description
    outcome["detected"] = result.stopped_by_rabit
    return outcome


@_workload("bug")
def _run_bug(params: Dict[str, Any]) -> Dict[str, Any]:
    from repro.faults.campaign import CAMPAIGN_BUGS, run_bug

    bug_id, config = str(params["bug_id"]), str(params["config"])
    by_id = {bug.bug_id: bug for bug in CAMPAIGN_BUGS}
    try:
        bug = by_id[bug_id]
    except KeyError:
        raise KeyError(
            f"unknown bug id {bug_id!r}; known: {sorted(by_id)}"
        ) from None
    outcome = run_bug(bug, config, compiled_dispatch=_compiled(params))
    return {
        "bug_id": bug_id,
        "config": config,
        "detected": outcome.detected,
        "alert": outcome.alert,
        "device_error": outcome.device_error,
        "completed": outcome.completed,
        "matches_paper": outcome.matches_paper,
    }


@_workload("workflow")
def _workflow_workload(params: Dict[str, Any]) -> Dict[str, Any]:
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
    return outcome


@_workload("fuzz")
def _run_fuzz(params: Dict[str, Any]) -> Dict[str, Any]:
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
    return outcome


def record_workload(
    name: str, params: Optional[Dict[str, Any]] = None, obs: bool = False
) -> RunTrace:
    """Run registered workload *name* with recording on; returns its trace.

    With ``obs=True`` the observability layer is reset and enabled for
    the duration of the run, so recorded events carry deterministic span
    ids and the spans carry the trace id — the cross-link is stable
    because span numbering restarts from 1 on every recorded run."""
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
    TRACE.begin(name, params, obs=obs)
    try:
        outcome = fn(params)
    except BaseException:
        TRACE.abort()
        raise
    finally:
        if obs:
            OBS.disable()
    return TRACE.end(outcome)


# ---------------------------------------------------------------------------
# Auto-dump hooks for the fault-injection engines
# ---------------------------------------------------------------------------


def dump_failed_mutant_traces(report: Any, seed: int, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every failed Monte Carlo mutant.

    *Failed* means misclassified — a false negative (harm RABIT missed)
    or a false positive (a benign mutant it flagged).  Each failure's
    monitored leg is re-recorded in this process (pure in ``(seed,
    index)``, so identical to what the sweep ran, sharded or not) and
    written to ``mutant-s<seed>-i<index>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in report.outcomes:
        if outcome.classification not in ("false_negative", "false_positive"):
            continue
        if "harness_error" in outcome.damage_kinds:
            continue  # the run itself crashed; there is nothing to replay
        trace = record_workload("mutant", {"seed": seed, "index": outcome.seed})
        path = directory / f"mutant-s{seed}-i{outcome.seed}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written


def dump_failed_dag_traces(report: Any, seed: int, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every misclassified random-DAG
    fuzz case (the ``generator="dag"`` analogue of
    :func:`dump_failed_mutant_traces`); files are named
    ``fuzz-s<seed>-i<index>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in report.outcomes:
        if outcome.classification not in ("false_negative", "false_positive"):
            continue
        if "harness_error" in outcome.damage_kinds:
            continue  # the run itself crashed; there is nothing to replay
        trace = record_workload("fuzz", {"seed": seed, "index": outcome.seed})
        path = directory / f"fuzz-s{seed}-i{outcome.seed}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written


def dump_campaign_mismatch_traces(result: Any, trace_dir: str) -> List[Path]:
    """Record and persist a trace for every campaign outcome that
    deviates from the paper's reported detection; files are named
    ``bug-<bug_id>-<config>.trace.jsonl``."""
    directory = Path(trace_dir)
    directory.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for outcome in result.mismatches():
        trace = record_workload(
            "bug", {"bug_id": outcome.bug.bug_id, "config": outcome.config}
        )
        path = directory / f"bug-{outcome.bug.bug_id}-{outcome.config}.trace.jsonl"
        trace.write_jsonl(path)
        written.append(path)
    return written
