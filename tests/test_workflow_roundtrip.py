"""Export → load → run round-trip coverage.

An exported preset spec *is* the workflow: loading it back and running
it must produce a journal byte-identical to running the in-memory DAG —
through the Python API, through the CLI (``workflow export`` then
``workflow run --spec``), and under trace record/replay (the ``workflow``
workload replays cleanly whether it was named as a preset or loaded from
a spec file, and the two traces agree event for event).
"""

import json

import pytest

from repro.cli import main
from repro.trace.recorder import RunTrace
from repro.trace.replay import replay_trace
from repro.trace.workloads import record_workload
from repro.workflow import (
    WorkflowDAG,
    build_context,
    build_preset,
    execute_dag,
    journal_bytes,
    run_journal,
)


def _run_to_bytes(dag: WorkflowDAG) -> bytes:
    ctx = build_context(
        deck=dag.deck, deck_params=dag.deck_params, prepare=dag.prepare
    )
    result = execute_dag(dag, ctx)
    return journal_bytes(
        run_journal(
            ctx.trace,
            result.executed_nodes,
            result.completed,
            result.alert,
            result.device_error,
            result.recovered,
        )
    )


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", ["two_door", "centrifuge", "testbed_bug_a"])
    def test_export_load_run_byte_identical(self, name, tmp_path):
        dag = build_preset(name)
        path = tmp_path / f"{name}.spec.json"
        path.write_bytes(dag.spec_bytes())
        loaded = WorkflowDAG.from_spec(json.loads(path.read_text()))
        assert loaded.spec_bytes() == dag.spec_bytes()
        assert _run_to_bytes(loaded) == _run_to_bytes(dag)

    def test_parameterized_spec_round_trips(self, tmp_path):
        dag = build_preset("solubility", {"dissolution_rounds": 1})
        loaded = WorkflowDAG.from_spec(json.loads(dag.spec_bytes()))
        assert _run_to_bytes(loaded) == _run_to_bytes(dag)


class TestWorkflowCli:
    def test_export_then_run_spec_matches_preset_run(self, tmp_path):
        spec = tmp_path / "wf.spec.json"
        direct = tmp_path / "direct.journal.json"
        via_spec = tmp_path / "viaspec.journal.json"
        assert main(["workflow", "export", "two_door", "--out", str(spec)]) == 0
        assert main(["workflow", "run", "two_door", "--journal", str(direct)]) == 0
        assert (
            main(["workflow", "run", "--spec", str(spec), "--journal", str(via_spec)])
            == 0
        )
        assert direct.read_bytes() == via_spec.read_bytes()

    def test_show_spec_equals_show_preset(self, tmp_path, capsys):
        spec = tmp_path / "wf.spec.json"
        assert main(["workflow", "export", "centrifuge", "--out", str(spec)]) == 0
        capsys.readouterr()
        assert main(["workflow", "show", "centrifuge"]) == 0
        from_preset = capsys.readouterr().out
        assert main(["workflow", "show", "--spec", str(spec)]) == 0
        from_file = capsys.readouterr().out
        assert from_preset == from_file

    def test_list_names_presets_and_steps(self, capsys):
        assert main(["workflow", "list", "--steps"]) == 0
        out = capsys.readouterr().out
        for expected in ("two_door", "solubility", "testbed_bug_a", "move", "set_door"):
            assert expected in out

    def test_run_exit_codes(self, tmp_path):
        # Bug A stops on an alert: run "succeeds" as a command but the
        # workflow did not complete, so the exit code is 1.
        assert main(["workflow", "run", "testbed_bug_a"]) == 1
        assert main(["workflow", "run", "no_such_preset"]) == 2
        assert main(["workflow", "run", "--spec", "/nonexistent/wf.json"]) == 2
        assert main(["workflow", "show", "solubility", "--param", "bogus=1"]) == 2
        bad = tmp_path / "bad.spec.json"
        bad.write_text("{not json")
        assert main(["workflow", "show", "--spec", str(bad)]) == 2

    @pytest.mark.parametrize("command", ["show", "run", "export"])
    def test_external_spec_files_load_or_exit_2(self, command, tmp_path, capsys):
        """A deep valid spec loads (no recursion limit in validation);
        malformed JSON shapes are load errors (exit 2), not tracebacks."""
        long = WorkflowDAG("long", deck="hein")
        for index in range(3000):
            step = "open_door" if index % 2 == 0 else "close_door"
            long.then(f"n{index}", step, device="dosing_device")
        string_params = long.to_spec()
        string_params["nodes"][0]["params"] = "device=dosing_device"
        specs = {
            "long": long.to_spec(),
            "string-params": string_params,
            "top-level-array": [long.to_spec()],
        }
        codes = {}
        for name, spec in specs.items():
            path = tmp_path / f"{name}.spec.json"
            path.write_text(json.dumps(spec))
            argv = ["workflow", command, "--spec", str(path)]
            if command == "export":
                argv += ["--out", str(tmp_path / f"{name}.out.json")]
            codes[name] = main(argv)
        assert codes == {"long": 0, "string-params": 2, "top-level-array": 2}
        err = capsys.readouterr().err
        assert "params must be an object" in err
        assert "must be a JSON object, got list" in err


class TestTraceRoundTrip:
    def test_workflow_workload_replays(self):
        trace = record_workload("workflow", {"preset": "two_door"})
        report = replay_trace(trace)
        assert report.match, report.diff_text()
        assert trace.footer["outcome"]["journal_digest"]

    def test_spec_trace_matches_preset_trace(self, tmp_path):
        """Recording via a spec file reproduces the preset recording's
        command stream exactly — only the workload identity (header and
        digest-bearing footer stay equal) differs."""
        spec = tmp_path / "two_door.spec.json"
        spec.write_bytes(build_preset("two_door").spec_bytes())
        from_preset = record_workload("workflow", {"preset": "two_door"})
        from_spec = record_workload("workflow", {"spec": str(spec)})
        assert from_preset.events == from_spec.events
        assert (
            from_preset.footer["outcome"]["journal_digest"]
            == from_spec.footer["outcome"]["journal_digest"]
        )
        report = replay_trace(from_spec)
        assert report.match, report.diff_text()

    def test_persisted_workflow_trace_replays(self, tmp_path):
        trace = record_workload(
            "workflow", {"preset": "solubility", "dissolution_rounds": 1}
        )
        path = tmp_path / "wf.trace.jsonl"
        trace.write_jsonl(path)
        loaded = RunTrace.read_jsonl(path)
        assert loaded.canonical_bytes() == trace.canonical_bytes()
        report = replay_trace(loaded)
        assert report.match, report.diff_text()

    def test_fuzz_workload_replays(self):
        trace = record_workload("fuzz", {"seed": 2024, "index": 1})
        report = replay_trace(trace)
        assert report.match, report.diff_text()
        assert "detected" in trace.footer["outcome"]

    def test_workflow_workload_rejects_ambiguous_params(self, tmp_path):
        spec = tmp_path / "wf.spec.json"
        spec.write_bytes(build_preset("two_door").spec_bytes())
        with pytest.raises(KeyError, match="not both"):
            record_workload(
                "workflow", {"preset": "two_door", "spec": str(spec)}
            )
        with pytest.raises(KeyError, match="no extra parameters"):
            record_workload("workflow", {"spec": str(spec), "amount_mg": 2.0})
