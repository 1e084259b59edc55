"""Command-line interface: ``python -m repro <command>``.

Operational entry points a lab would actually use:

- ``validate <config.json>`` — check a RABIT configuration file (the
  §V-A pilot-study schema validation), exit 1 on errors;
- ``scenarios`` — run the Table III/IV controlled rule violations;
- ``campaign`` — run the §IV 16-bug campaign and print Table V and the
  detection-rate progression (``--workers`` shards the runs over a
  process pool with identical results);
- ``montecarlo`` — sample random single-edit mutants of the Fig. 5
  workflow and print the confusion matrix against unmonitored ground
  truth, optionally exporting per-mutant outcomes as JSONL;
- ``latency`` — the §II-C overhead experiment;
- ``calibration`` — the §IV frame-calibration experiment;
- ``mine`` — generate a synthetic RAD corpus and mine candidate rules;
- ``metrics`` — run a workload with the observability layer enabled and
  export the span trace (JSONL) plus the metrics dump (Prometheus text,
  optionally a JSON snapshot);
- ``record`` — run a registered workload with the trace recorder on and
  persist the schema-versioned run trace as JSONL;
- ``replay`` — re-execute persisted traces and assert byte-identical
  verdicts/state deltas (``--diff`` prints the first divergence; exit 1
  on mismatch, 2 on a corrupt or unreadable trace);
- ``serve`` — run the long-lived asyncio guard service multiplexing many
  concurrent lab sessions (unix socket or TCP, newline-delimited
  canonical JSON; see :mod:`repro.serve`);
- ``workflow`` — list, inspect, run, and export declarative workflow
  presets (the step-registry/DAG engine of :mod:`repro.workflow`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, Tuple


def _int_at_least(text: str, minimum: int, kind: str) -> int:
    """Parse *text* as an integer >= *minimum* for argparse (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"expected a {kind} integer, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """Argparse type: a strictly positive integer (exit 2 otherwise)."""
    return _int_at_least(text, 1, "positive")


def _nonneg_int(text: str) -> int:
    """Argparse type: an integer >= 0 (exit 2 otherwise).

    Seeds and counts reject ``-1`` at the argparse boundary; numpy's seed
    check or a negative slice bound would otherwise fail, or run on,
    far from the flag that caused it."""
    return _int_at_least(text, 0, "non-negative")


def _nonneg_float(text: str) -> float:
    """Argparse type: a finite float >= 0 (exit 2 otherwise).

    Latencies and other duration-flavoured knobs must reject ``-1``,
    ``nan``, and ``inf`` at the argparse boundary — a negative sleep
    raises deep inside asyncio and an infinite one never returns, both
    far from the flag that caused them.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {text!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}"
        )
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative number, got {value}"
        )
    return value


def _workers_type(text: str) -> int:
    """Argparse type for ``--workers``: a positive integer or ``auto``.

    ``auto`` (one worker per CPU) maps to the engine's 0 sentinel; bare
    ``0`` and negatives are rejected with a clear message instead of
    being silently treated as auto.
    """
    if text.strip().lower() == "auto":
        return 0
    try:
        return _positive_int(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {text!r}"
        ) from None


def _param_pair(text: str) -> Tuple[str, Any]:
    """Argparse type for ``--param key=value`` (exit 2 otherwise).

    Values that parse as JSON keep their type (``seed=2024`` is an int);
    anything else stays a string (``bug_id=H1``)."""
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _out_path(text: str) -> str:
    """Argparse type for an output file: its directory must exist and the
    path must not be a directory (exit 2 otherwise), so a bad path fails
    before the run instead of after it."""
    path = Path(text)
    if not path.parent.is_dir():
        raise argparse.ArgumentTypeError(f"no such directory: {str(path.parent)!r}")
    if text and path.is_dir():
        raise argparse.ArgumentTypeError(f"{text!r} is a directory")
    return text


def _dir_path(text: str) -> str:
    """Argparse type for an output directory: made when missing, but no
    part of the path may be an existing file (exit 2 otherwise), so the
    sweep does not run to its end and then fail to make it."""
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"{str(existing)!r} is not a directory")
    return text


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.config import ConfigError, parse_config_text, validate_config

    try:
        document = parse_config_text(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: no such file: {args.config}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for issue in exc.issues:
            print(issue)
        return 1
    issues = validate_config(document)
    for issue in issues:
        print(issue)
    errors = [i for i in issues if i.severity == "error"]
    print(
        f"{args.config}: {len(errors)} error(s), "
        f"{len(issues) - len(errors)} warning(s)"
    )
    return 1 if errors else 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.lab.scenarios import ALL_SCENARIOS, run_scenario

    wanted = set(args.rules.split(",")) if args.rules else None
    rows = []
    failures = 0
    for scenario in ALL_SCENARIOS:
        if wanted is not None and scenario.rule_id not in wanted:
            continue
        outcome = run_scenario(scenario)
        ok = outcome.attributed_correctly
        failures += 0 if ok else 1
        rows.append(
            [scenario.rule_id, scenario.description[:60], "detected" if ok else "MISSED"]
        )
    print(format_table(["rule", "controlled violation", "outcome"], rows,
                       title="Controlled rule-violation scenarios (Tables III & IV)"))
    return 1 if failures else 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import campaign_stats, severity_rows
    from repro.analysis.report import format_severity_table, format_table
    from repro.faults.campaign import run_campaign

    configs = args.configs.split(",") if args.configs else [
        "initial", "modified", "modified_es"
    ]
    result = run_campaign(
        configs=configs,
        workers=args.workers,
        trace_dir=args.trace_dir or None,
    )
    rows = []
    for config in configs:
        stats = campaign_stats(result, config)
        rows.append([config, f"{stats.detected}/{stats.total}", f"{stats.percent} %"])
    print(format_table(["configuration", "detected", "rate"], rows,
                       title="Detection-rate progression (§IV)"))
    if "modified" in configs:
        print()
        print(format_severity_table(severity_rows(result, "modified")))
    mismatches = result.mismatches()
    if mismatches:
        print(f"\nWARNING: {len(mismatches)} outcome(s) deviate from the paper:")
        for outcome in mismatches:
            print(f"  {outcome.bug.bug_id} [{outcome.config}]: detected={outcome.detected}")
        return 1
    print("\nAll outcomes match the paper.")
    return 0


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    from repro.analysis.metrics import montecarlo_rows
    from repro.analysis.report import format_table
    from repro.faults.montecarlo import run_monte_carlo

    report = run_monte_carlo(
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        trace_dir=args.trace_dir or None,
        generator=args.generator,
    )
    kind = "mutants" if args.generator == "mutant" else "fuzzed workflow DAGs"
    print(format_table(
        ["quantity", "value", "note"],
        montecarlo_rows(report),
        title=(
            f"Monte Carlo bug study ({args.samples} random {kind}, "
            f"seed {args.seed}, modified RABIT)"
        ),
    ))
    missed = [o for o in report.outcomes if o.classification == "false_negative"]
    if missed:
        print("\nMissed mutants:")
        for outcome in missed:
            print(f"  {outcome.description} -> {', '.join(outcome.damage_kinds)}")
    if args.jsonl:
        with Path(args.jsonl).open("w", encoding="utf-8") as fh:
            for outcome in report.outcomes:
                fh.write(json.dumps(outcome.as_dict(), sort_keys=True) + "\n")
        print(f"\nwrote {len(report.outcomes)} mutant outcomes to {args.jsonl}")
    # Exit nonzero on a false alarm: the paper's usability argument rests
    # on zero false positives, so a sweep that finds one is a regression.
    return 1 if report.count("false_positive") else 0


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.analysis.latency import measure_workflow_latency
    from repro.analysis.report import format_table

    reports = measure_workflow_latency(compiled=args.compiled)
    rows = [
        [
            name,
            report.commands,
            f"{report.experiment_seconds:.1f} s",
            f"{report.overhead_per_command:.4f} s",
            f"{report.overhead_percent:.1f} %",
        ]
        for name, report in reports.items()
    ]
    dispatch = "compiled" if args.compiled else "interpreted"
    print(format_table(
        ["configuration", "commands", "baseline", "overhead/cmd", "overhead %"],
        rows,
        title=f"§II-C latency overhead (virtual clock, {dispatch} dispatch)",
    ))
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    from repro.testbed.calibration import run_calibration_experiment

    result = run_calibration_experiment()
    print(
        f"fitted Ned2->ViperX rigid transform over {len(result.errors)} fiducials: "
        f"mean residual {result.mean_error * 100:.2f} cm, "
        f"max {result.max_error * 100:.2f} cm"
    )
    print("(the paper measured ~3 cm and kept separate frames + multiplexing)")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from repro.rad.generator import generate_combined
    from repro.rad.mining import mine_and_classify, mine_door_rules

    dataset = generate_combined(
        hein_sessions=args.hein, berlinguette_sessions=args.berlinguette
    )
    if args.out:
        dataset.to_jsonl(Path(args.out))
        print(f"wrote {len(dataset)} traces ({dataset.total_events()} events) to {args.out}")
    rules = mine_and_classify(dataset, min_support=args.min_support)
    for door_rule in mine_door_rules(dataset):
        print(door_rule.describe())
    for mined in rules[: args.top]:
        print(mined.describe(), f"(support {mined.support})")
    print(f"... {len(rules)} classified rules total")
    return 0


def _run_observed_solubility() -> int:
    """The ``solubility`` trace workload (RABIT + headless ES); returns
    the intercepted-command count."""
    from repro.trace.workloads import run_preset_workload

    outcome, _records = run_preset_workload("solubility", {})
    if not outcome["completed"]:  # pragma: no cover - safe workflow invariant
        raise RuntimeError(f"observed workflow did not complete: {outcome['alert']}")
    return outcome["commands"]


def _run_observed_scenarios() -> int:
    """Every Table III/IV controlled violation; returns the scenario count."""
    from repro.core.monitor import RabitOptions
    from repro.lab.scenarios import ALL_SCENARIOS, run_scenario

    options = RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
    for scenario in ALL_SCENARIOS:
        run_scenario(scenario, options=options)
    return len(ALL_SCENARIOS)


def _run_observed_campaign() -> int:
    """The §IV 16-bug campaign; returns the outcome count."""
    from repro.faults.campaign import run_campaign

    result = run_campaign()
    return len(result.outcomes)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.obs import OBS

    workloads = {
        "solubility": _run_observed_solubility,
        "scenarios": _run_observed_scenarios,
        "campaign": _run_observed_campaign,
    }
    OBS.reset()
    OBS.enable()
    try:
        units = workloads[args.workload]()
    finally:
        OBS.disable()

    summary = OBS.summary()
    rows = [
        ["workload", f"{args.workload} ({units} units)"],
        ["commands intercepted", f"{summary['commands_intercepted']:.0f}"],
    ]
    for outcome, count in sorted(summary["verdicts"].items()):
        rows.append([f"verdict: {outcome}", f"{count:.0f}"])
    rows += [
        [
            "rule cache hit/miss",
            f"{summary['rule_cache_hits']:.0f}/{summary['rule_cache_misses']:.0f} "
            f"({100.0 * summary['rule_cache_hit_rate']:.1f} %)",
        ],
        [
            "trajectory checks",
            ", ".join(
                f"{path}: {count:.0f}"
                for path, count in sorted(summary["trajectory_checks"].items())
            )
            or "0",
        ],
        ["collision segments swept", f"{summary['collision_segments_swept']:.0f}"],
        ["geometry pair checks", f"{summary['geometry_pair_checks']:.0f}"],
        ["device commands executed", f"{summary['device_commands']:.0f}"],
        [
            "spans recorded",
            f"{summary['spans_recorded']} ({summary['spans_dropped']} dropped)",
        ],
    ]
    print(format_table(["metric", "value"], rows, title="Observability summary"))

    totals = OBS.collector.totals_by_name()
    span_rows = [
        [name, f"{agg['count']:.0f}", f"{agg['wall_seconds'] * 1e3:.2f} ms",
         f"{agg['max_wall_seconds'] * 1e3:.3f} ms"]
        for name, agg in sorted(
            totals.items(), key=lambda kv: -kv[1]["wall_seconds"]
        )[: args.top]
    ]
    if span_rows:
        print()
        print(format_table(
            ["span", "count", "total wall", "max wall"], span_rows,
            title=f"Hottest spans (top {len(span_rows)})",
        ))

    spans = OBS.collector.write_jsonl(args.trace_out)
    prometheus = OBS.registry.to_prometheus().encode("utf-8")
    Path(args.prom_out).write_bytes(prometheus)
    print(f"\nwrote {spans} spans to {args.trace_out}")
    print(f"wrote {len(prometheus)} bytes of Prometheus metrics to {args.prom_out}")
    if args.json_out:
        snapshot = json.dumps(OBS.registry.snapshot(), indent=2, sort_keys=True)
        Path(args.json_out).write_text(snapshot + "\n", encoding="utf-8")
        print(f"wrote metrics JSON snapshot to {args.json_out}")
    OBS.reset()
    return 0


def _cmd_record(args: argparse.Namespace) -> int:
    from repro.trace.workloads import WORKLOADS, record_workload

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}",
            file=sys.stderr,
        )
        return 2
    try:
        trace = record_workload(args.workload, dict(args.param), obs=args.obs)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    lines = trace.write_jsonl(args.out)
    print(
        f"recorded {trace.trace_id} (workload {args.workload}, "
        f"{len(trace.events)} events, schema v{trace.schema_version}): "
        f"wrote {lines} lines to {args.out}"
    )
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.trace.recorder import RunTrace, TraceFormatError
    from repro.trace.replay import replay_trace
    from repro.trace.schema import UnknownSchemaVersionError

    mismatches = 0
    for path in args.traces:
        try:
            recorded = RunTrace.read_jsonl(path)
        except (TraceFormatError, UnknownSchemaVersionError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read {path}: {exc.strerror}", file=sys.stderr)
            return 2
        report = replay_trace(recorded)
        status = "ok" if report.match else "MISMATCH"
        print(
            f"{path}: {status} ({recorded.trace_id}, "
            f"workload {recorded.header['workload']}, "
            f"{len(recorded.events)} events)"
        )
        if not report.match:
            mismatches += 1
            if args.diff:
                print(report.diff_text())
    if mismatches:
        print(f"\n{mismatches} of {len(args.traces)} trace(s) diverged")
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import GuardServer

    if args.shard_workers is not None:
        return _cmd_serve_sharded(args)
    if args.metrics_port is not None:
        print("error: --metrics-port requires --shard-workers", file=sys.stderr)
        return 2

    server = GuardServer(
        max_sessions=args.sessions, default_io_latency=args.io_latency
    )

    async def run() -> None:
        if args.socket:
            await server.start_unix(args.socket)
            print(f"guard service listening on unix socket {args.socket}")
        else:
            await server.start_tcp(args.host, args.port)
            print(f"guard service listening on {args.host}:{args.port}")
        print(f"(max {args.sessions} sessions)")
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("guard service stopped")
    return 0


def _cmd_serve_sharded(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.shard import ShardConfig, ShardService, ShardUnsupportedError

    config = ShardConfig(
        workers=args.shard_workers,
        socket=args.socket,
        host=args.host,
        port=args.port,
        max_sessions=args.sessions,
        default_io_latency=args.io_latency,
        metrics_port=args.metrics_port,
        enable_obs=args.obs,
    )
    try:
        service = ShardService(config)
    except ShardUnsupportedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def run() -> None:
        await service.start()
        if config.socket:
            print(
                f"sharded guard service listening on unix socket {config.socket}"
            )
        else:
            print(f"sharded guard service listening on {config.host}:{config.port}")
        print(
            f"({config.workers} workers, max {config.max_sessions} sessions each)"
        )
        if config.metrics_port is not None:
            print(
                f"metrics on http://{config.metrics_host}:{config.metrics_port}"
                "/metrics (health: /healthz)"
            )
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await service.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("sharded guard service stopped")
    return 0


def _cmd_workflow_list(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.workflow import PRESETS, REGISTRY

    rows = []
    for name in sorted(PRESETS):
        entry = PRESETS[name]
        dag = entry.build()
        rows.append(
            [entry.signature(), dag.deck, str(len(dag.nodes)), entry.description[:52]]
        )
    print(format_table(
        ["preset", "deck", "nodes", "description"], rows, title="Workflow presets"
    ))
    if args.steps:
        step_rows = [
            [REGISTRY.steps[name].signature(), REGISTRY.steps[name].description[:56]]
            for name in REGISTRY.list_steps()
        ]
        print()
        print(format_table(
            ["step", "description"], step_rows, title="Registered steps"
        ))
    return 0


def _on_dag(
    handler: Callable[[argparse.Namespace, Any], int]
) -> Callable[[argparse.Namespace], int]:
    """The one load-and-validate step of ``workflow show/run/export``:
    *handler* gets the validated DAG the preset (plus ``--param``) or the
    ``--spec`` file names; a DAG that does not load or validate exits 2."""

    def run(args: argparse.Namespace) -> int:
        from repro.workflow import load_dag

        try:
            dag = load_dag(args.preset or None, dict(args.param), args.spec or None)
            dag.validate()
        except (KeyError, ValueError, OSError) as exc:
            print(
                f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}",
                file=sys.stderr,
            )
            return 2
        return handler(args, dag)

    return run


@_on_dag
def _cmd_workflow_show(args: argparse.Namespace, dag: Any) -> int:
    print(json.dumps(dag.to_spec(), indent=2, sort_keys=True))
    return 0


@_on_dag
def _cmd_workflow_export(args: argparse.Namespace, dag: Any) -> int:
    payload = dag.spec_bytes() + b"\n"
    Path(args.out).write_bytes(payload)
    print(f"exported {dag.name!r} ({len(dag.nodes)} nodes) to {args.out}")
    return 0


@_on_dag
def _cmd_workflow_run(args: argparse.Namespace, dag: Any) -> int:
    from repro.analysis.report import format_table
    from repro.trace.canon import canonical_bytes
    from repro.workflow import journal_digest, run_dag, run_journal

    try:
        ctx, result = run_dag(dag, monitored=not args.unmonitored)
    except ValueError as exc:  # the deck or its vial preparation refused
        print(f"error: {exc}", file=sys.stderr)
        return 2
    journal = run_journal(
        ctx.trace, result.executed_nodes, result.completed,
        result.alert, result.device_error, result.recovered,
    )
    rows = [
        ["workflow", dag.name],
        ["deck", dag.deck],
        ["monitored", "no" if args.unmonitored else "yes (modified RABIT)"],
        ["completed", "yes" if result.completed else "no"],
        ["nodes executed", f"{len(result.executed_nodes)}/{len(dag.nodes)}"],
        ["commands traced", str(len(ctx.trace))],
        ["alert", str(result.alert) if result.alert else "-"],
        ["device error", result.device_error or "-"],
        ["recovered", "yes" if result.recovered else "no"],
        ["journal digest", journal_digest(journal)],
    ]
    print(format_table(["field", "value"], rows, title=f"Workflow run: {dag.name}"))
    if args.journal:
        Path(args.journal).write_bytes(canonical_bytes(journal) + b"\n")
        print(f"wrote journal to {args.journal}")
    return 0 if result.completed else 1


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.devices.robot import RobotArmDevice
    from repro.lab.decks import build_deck
    from repro.simulator.render import render_topdown

    try:
        deck = build_deck(args.lab)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One view per arm, in its own frame (an arm's frame is its name).
    for name, device in deck.devices.items():
        if isinstance(device, RobotArmDevice):
            print(render_topdown(deck.model, name, robot=device))
            print()
    return 0


def _flag_groups() -> Tuple[argparse.ArgumentParser, ...]:
    """The flag groups several subcommands share, each declared once:
    ``(sweep, params, source)``.

    *sweep* is ``--workers``/``--trace-dir`` (``campaign``,
    ``montecarlo``); *params* is ``--param`` (``record`` and the
    workflow commands); *source* names a workflow: a preset (plus
    *params*) or a ``--spec`` file, exactly one of the two
    (``workflow show/run/export``)."""
    sweep = argparse.ArgumentParser(add_help=False)
    sweep.add_argument(
        "--workers", type=_workers_type, default=1, metavar="N|auto",
        help="process-pool workers; 'auto' means one per CPU (default: 1, sequential)",
    )
    sweep.add_argument(
        "--trace-dir", default="", dest="trace_dir", type=_dir_path,
        help="dump a replayable run trace here for every case whose outcome "
        "is wrong (a paper-mismatched bug, a misclassified mutant)",
    )
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument(
        "--param", action="append", default=[], type=_param_pair, metavar="KEY=VALUE",
        help="preset or workload parameter (repeatable); e.g. --param seed=2024",
    )
    source = argparse.ArgumentParser(add_help=False, parents=[params])
    named = source.add_mutually_exclusive_group(required=True)
    named.add_argument("preset", nargs="?", default="", help="preset name")
    named.add_argument(
        "--spec", default="", help="an exported spec file instead of a preset"
    )
    return sweep, params, source


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RABIT reproduction: validation, scenarios, campaign, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep, params, source = _flag_groups()

    p = sub.add_parser("validate", help="validate a RABIT JSON configuration")
    p.add_argument("config", help="path to the configuration file")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("scenarios", help="run the controlled rule violations")
    p.add_argument("--rules", default="", help="comma-separated rule ids (default: all)")
    p.set_defaults(fn=_cmd_scenarios)

    p = sub.add_parser("campaign", parents=[sweep], help="run the 16-bug campaign")
    p.add_argument(
        "--configs", default="", help="comma-separated configurations (default: all three)"
    )
    p.set_defaults(fn=_cmd_campaign)

    p = sub.add_parser(
        "montecarlo",
        parents=[sweep],
        help="sample random workflow mutants; print the confusion matrix",
    )
    p.add_argument("--samples", type=_positive_int, default=40, help="mutants to sample")
    p.add_argument("--seed", type=_nonneg_int, default=2024, help="sweep base seed")
    p.add_argument(
        "--jsonl", default="", type=_out_path,
        help="optional path for per-mutant outcomes as JSON lines",
    )
    p.add_argument(
        "--generator", default="mutant", choices=["mutant", "dag"],
        help="case source: single-edit mutants of the Fig. 5 script, or "
             "whole random workflow DAGs from the step registry",
    )
    p.set_defaults(fn=_cmd_montecarlo)

    p = sub.add_parser("latency", help="run the latency-overhead experiment")
    p.add_argument(
        "--interpreted", dest="compiled", action="store_false",
        help="use the interpreted full-rulebase scan (reference path) instead "
        "of compiled rulebase dispatch",
    )
    p.set_defaults(fn=_cmd_latency)

    p = sub.add_parser("calibration", help="run the frame-calibration experiment")
    p.set_defaults(fn=_cmd_calibration)

    p = sub.add_parser(
        "serve",
        help="run the multi-session guard service (asyncio front-end)",
    )
    p.add_argument(
        "--socket", default="", help="unix socket path (preferred when local)"
    )
    p.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p.add_argument("--port", type=_positive_int, default=7310, help="TCP bind port")
    p.add_argument(
        "--sessions", type=_positive_int, default=32, metavar="N",
        help="max concurrent sessions, the only load bound: opens beyond it "
        "get a retryable session-limit refusal (default: 32)",
    )
    p.add_argument(
        "--io-latency", type=_nonneg_float, default=0.0, dest="io_latency",
        help="default per-command device I/O latency, seconds (default: 0)",
    )
    p.add_argument(
        "--shard-workers", type=_positive_int, default=None, dest="shard_workers",
        metavar="N",
        help="shard the service across N forked worker processes "
        "(default: single-process)",
    )
    p.add_argument(
        "--metrics-port", type=_positive_int, default=None, dest="metrics_port",
        metavar="PORT",
        help="HTTP port for /metrics and /healthz (sharded mode only; "
        "default: no endpoint)",
    )
    p.add_argument(
        "--obs", action="store_true",
        help="enable the observability layer inside shard workers "
        "(full serve_* metric families on /metrics)",
    )
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "workflow",
        help="list, inspect, run, and export declarative workflow presets",
    )
    wf = p.add_subparsers(dest="workflow_command", required=True)

    w = wf.add_parser("list", help="list registered presets (and steps)")
    w.add_argument(
        "--steps", action="store_true",
        help="also print the step catalog with typed signatures",
    )
    w.set_defaults(fn=_cmd_workflow_list)

    w = wf.add_parser("show", parents=[source], help="print a workflow's JSON spec")
    w.set_defaults(fn=_cmd_workflow_show)

    w = wf.add_parser(
        "run", parents=[source], help="execute a workflow through the guarded pipeline"
    )
    w.add_argument(
        "--unmonitored", action="store_true",
        help="run without the monitor (ground-truth leg; traces only)",
    )
    w.add_argument(
        "--journal", default="", type=_out_path,
        help="optional path for the canonical run journal (JSON)",
    )
    w.set_defaults(fn=_cmd_workflow_run)

    w = wf.add_parser(
        "export", parents=[source], help="write a workflow's canonical spec"
    )
    w.add_argument(
        "--out", default="workflow.spec.json", type=_out_path, help="spec output path"
    )
    w.set_defaults(fn=_cmd_workflow_export)

    p = sub.add_parser("render", help="print a top-down view of a deck")
    p.add_argument(
        "--lab", default="hein", metavar="DECK",
        help="which deck to render: a name in repro.lab.decks.DECKS (default: hein)",
    )
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser(
        "metrics",
        help="run a workload with observability on; export span trace + metrics",
    )
    p.add_argument(
        "--workload", default="solubility",
        choices=["solubility", "scenarios", "campaign"],
        help="what to run under the observability layer",
    )
    p.add_argument(
        "--trace-out", default="obs-trace.jsonl", dest="trace_out", type=_out_path,
        help="JSONL span-trace output path",
    )
    p.add_argument(
        "--prom-out", default="obs-metrics.prom", dest="prom_out", type=_out_path,
        help="Prometheus text-format metrics output path",
    )
    p.add_argument(
        "--json-out", default="", dest="json_out", type=_out_path,
        help="optional JSON metrics-snapshot output path",
    )
    p.add_argument("--top", type=_nonneg_int, default=8, help="span rows to print")
    p.set_defaults(fn=_cmd_metrics)

    p = sub.add_parser(
        "record",
        parents=[params],
        help="run a workload with the trace recorder on; write the run trace",
    )
    p.add_argument(
        "--workload", default="solubility",
        help="registered workload name (e.g. solubility, testbed, multi_door, "
             "mutant, bug, workflow, fuzz)",
    )
    p.add_argument(
        "--obs", action="store_true",
        help="record with the observability layer enabled (span cross-links)",
    )
    p.add_argument(
        "--out", default="run.trace.jsonl", type=_out_path,
        help="trace output path (JSONL)",
    )
    p.set_defaults(fn=_cmd_record)

    p = sub.add_parser(
        "replay",
        help="re-execute recorded traces; fail on any byte-level divergence",
    )
    p.add_argument("traces", nargs="+", help="trace files to replay")
    p.add_argument(
        "--diff", action="store_true",
        help="print the first divergence field-by-field on mismatch",
    )
    p.set_defaults(fn=_cmd_replay)

    p = sub.add_parser("mine", help="generate traces and mine candidate rules")
    p.add_argument("--hein", type=_nonneg_int, default=5, help="Hein sessions to replay")
    p.add_argument(
        "--berlinguette", type=_nonneg_int, default=4, help="Berlinguette sessions"
    )
    p.add_argument("--min-support", type=_nonneg_int, default=4, dest="min_support")
    p.add_argument("--top", type=_nonneg_int, default=15, help="rules to print")
    p.add_argument(
        "--out", default="", type=_out_path, help="write traces to this JSONL path"
    )
    p.set_defaults(fn=_cmd_mine)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover - module CLI shim
    raise SystemExit(main())
