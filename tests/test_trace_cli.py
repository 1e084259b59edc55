"""CLI coverage for ``python -m repro record`` / ``replay``.

Exit-code contract: 0 when every trace replays byte-identically, 1 on a
divergence (with ``--diff`` printing the first one field-by-field), 2
when a trace file is corrupt, truncated, of an unknown schema version,
or the record request itself is invalid.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.trace.recorder import RunTrace
from repro.trace.schema import SCHEMA_VERSION

FIXTURES = Path(__file__).parent / "fixtures" / "traces"
GOLDEN = FIXTURES / "multi-door-2024.trace.jsonl"


@pytest.fixture()
def recorded(tmp_path, capsys):
    """A freshly CLI-recorded multi-door trace."""
    path = tmp_path / "md.trace.jsonl"
    assert main(["record", "--workload", "multi_door", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def _rewrite(src: Path, dst: Path, mutate) -> Path:
    """Load *src*'s JSONL docs, apply *mutate* to the list, write *dst*."""
    docs = [json.loads(line) for line in src.read_text().splitlines()]
    mutate(docs)
    dst.write_text("".join(json.dumps(d, sort_keys=True) + "\n" for d in docs))
    return dst


class TestRecord:
    def test_record_writes_a_replayable_trace(self, recorded, capsys):
        trace = RunTrace.read_jsonl(recorded)
        assert trace.header["workload"] == "multi_door"
        assert main(["replay", str(recorded)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_record_with_params(self, tmp_path, capsys):
        path = tmp_path / "mutant.trace.jsonl"
        assert main([
            "record", "--workload", "mutant",
            "--param", "seed=2024", "--param", "index=0",
            "--out", str(path),
        ]) == 0
        trace = RunTrace.read_jsonl(path)
        assert trace.header["params"] == {"seed": 2024, "index": 0}

    def test_unknown_workload_exits_two(self, tmp_path, capsys):
        assert main([
            "record", "--workload", "nope",
            "--out", str(tmp_path / "x.jsonl"),
        ]) == 2
        assert "unknown workload" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "workload, params, message",
        [
            ("mutant", ["seed=-1", "index=0"], "non-negative"),
            ("fuzz", ["seed=-1", "index=0"], "non-negative"),
            ("bug", ["bug_id=nope", "config=modified"], "unknown bug id"),
            ("multi_door", ["dispatch=jit"], "unknown dispatch mode"),
        ],
        ids=["mutant-seed", "fuzz-seed", "bug-id", "dispatch"],
    )
    def test_refused_workload_params_exit_two(
        self, workload, params, message, tmp_path, capsys
    ):
        argv = ["record", "--workload", workload, "--out", str(tmp_path / "x.jsonl")]
        for pair in params:
            argv += ["--param", pair]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x.jsonl").exists()

    def test_malformed_param_exits_two(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "record", "--workload", "mutant", "--param", "seed",
                "--out", str(tmp_path / "x.jsonl"),
            ])


class TestReplay:
    def test_golden_trace_exits_zero(self, capsys):
        assert main(["replay", str(GOLDEN)]) == 0

    def test_divergence_exits_one_with_first_diff(self, recorded, tmp_path, capsys):
        def tamper(docs):
            docs[3]["args"] = ["tampered"]

        bad = _rewrite(recorded, tmp_path / "tampered.trace.jsonl", tamper)
        assert main(["replay", str(bad), "--diff"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert "first divergence at event 2" in out
        assert "tampered" in out and "recorded:" in out and "replayed:" in out

    def test_corrupt_json_exits_two(self, recorded, tmp_path, capsys):
        bad = tmp_path / "corrupt.trace.jsonl"
        text = recorded.read_text().splitlines()
        text[2] = '{"type": "command", truncated'
        bad.write_text("\n".join(text) + "\n")
        assert main(["replay", str(bad)]) == 2
        assert "line 3 is not valid JSON" in capsys.readouterr().err

    def test_truncated_trace_exits_two(self, recorded, tmp_path, capsys):
        bad = tmp_path / "truncated.trace.jsonl"
        lines = recorded.read_text().splitlines()
        bad.write_text("\n".join(lines[:-1]) + "\n")  # drop the footer
        assert main(["replay", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_event_count_mismatch_exits_two(self, recorded, tmp_path, capsys):
        def drop_event(docs):
            del docs[1]  # footer still declares the original count

        bad = _rewrite(recorded, tmp_path / "short.trace.jsonl", drop_event)
        assert main(["replay", str(bad)]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_unknown_schema_version_exits_two(self, recorded, tmp_path, capsys):
        def from_the_future(docs):
            docs[0]["schema_version"] = SCHEMA_VERSION + 97

        bad = _rewrite(recorded, tmp_path / "future.trace.jsonl", from_the_future)
        assert main(["replay", str(bad)]) == 2
        assert (
            f"unsupported trace schema_version {SCHEMA_VERSION + 97}"
            in capsys.readouterr().err
        )

    def test_missing_file_exits_two(self, capsys):
        assert main(["replay", "/nonexistent/run.trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestSchemaUpgrade:
    def test_v1_trace_upgrades_and_replays(self, recorded, tmp_path, capsys):
        """A downgraded v1 file (old field names, verbose deltas) is
        upgraded on read and still replays byte-identically."""

        def downgrade(docs):
            docs[0]["schema_version"] = 1
            for doc in docs[1:]:
                if doc.get("type") != "command":
                    continue
                doc["time"] = doc.pop("t")
                doc["state_delta"] = [
                    {"var": var, "key": key, "value": value}
                    for var, key, value in doc["state_delta"]
                ]

        old = _rewrite(recorded, tmp_path / "v1.trace.jsonl", downgrade)
        upgraded = RunTrace.read_jsonl(old)
        assert upgraded.schema_version == SCHEMA_VERSION
        assert upgraded.canonical_bytes() == RunTrace.read_jsonl(recorded).canonical_bytes()
        assert main(["replay", str(old)]) == 0
