"""Command-level metrics are projections of the command record.

``Interception`` is the one site that counts a guarded command: on exit
it projects the finished :class:`~repro.core.interceptor.CommandRecord`
onto the command-level metric families.  Two consequences are pinned
here:

1. **Both front-ends count alike.**  The same script guarded through
   service sessions (async guard, shared sweep batcher) and through the
   in-process proxies leaves every command-level series, and the number
   of timed guards, equal.
2. **The counters are the records.**  For a whole preset workflow, each
   family equals what the returned records say, computed here from the
   records alone.
"""

from __future__ import annotations

import asyncio
import bisect
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.serve.journal as journal_module
import repro.serve.session as session_module
from repro.core.errors import AlertKind
from repro.obs import OBS
from repro.serve.batcher import SweepBatcher
from repro.serve.journal import run_inprocess_journal
from repro.serve.session import GuardSession
from repro.trace.workloads import run_preset_workload
from tests.test_serve_differential import _add_tip_trap

#: The families ``Interception`` counts from the record.
MOVED = (
    "rabit_commands_intercepted_total",
    "rabit_command_verdicts_total",
    "rabit_alerts_total",
    "rabit_state_comparisons_total",
    "rabit_rule_cache_lookups_total",
    "es_trajectory_checks_total",
    "es_trajectory_verdicts_total",
    "es_segments_swept_total",
    "es_sweep_samples",
)

#: Allowed moves, the tip-trap sweep block on the move to
#: ``grid_a1_safe``, a G1 precondition block (door closed), a jammed
#: door's state mismatch, and repeats for rule-cache hits.
SCRIPT = [
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
    {"device": "ur3e", "method": "move_to_location", "args": ["dosing_interior"]},
    {"device": "dosing_device", "method": "open_door"},
    {"device": "ur3e", "method": "go_to_sleep_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
]

SESSIONS = 2


@pytest.fixture(autouse=True)
def _clean_global_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


@pytest.fixture
def trapped_decks(monkeypatch):
    """Every deck the service or the in-process reference wires gets the
    tip trap and a jammed dosing door before its first command."""
    make_rabit = session_module.make_rabit

    def trapped(deck, *args, **kwargs):
        wired = make_rabit(deck, *args, **kwargs)
        _add_tip_trap(SimpleNamespace(rabit=wired[0], deck=deck))
        deck.devices["dosing_device"].door.jam()
        return wired

    monkeypatch.setattr(session_module, "make_rabit", trapped)
    monkeypatch.setattr(journal_module, "make_rabit", trapped)


def _observed(run):
    """Run *run* with observability reset and on; the moved families'
    snapshots, the number of timed guards, and what *run* returned."""
    OBS.reset()
    OBS.enable()
    try:
        result = run()
    finally:
        OBS.disable()
    snapshots = {name: OBS.registry.get(name).snapshot() for name in MOVED}
    guard_seconds = OBS.registry.get("rabit_guard_wall_seconds").snapshot()
    timed = sum(series["count"] for series in guard_seconds["values"])
    return snapshots, timed, result


def _service_journals():
    async def scenario():
        batcher = SweepBatcher()
        batcher.start()
        try:
            sessions = [
                GuardSession(i, "hein_lean", batcher=batcher) for i in range(SESSIONS)
            ]

            async def drive(session):
                for command in SCRIPT:
                    await session.run_command(
                        command["device"], command["method"], tuple(command.get("args", ()))
                    )
                return session.journal

            return await asyncio.gather(*[drive(s) for s in sessions]), batcher.stats
        finally:
            await batcher.stop()

    journals, stats = asyncio.run(scenario())
    assert stats["submitted"] > 0  # the sweeps really went through the batcher
    return journals


def _inprocess_journals():
    return [run_inprocess_journal("hein_lean", SCRIPT) for _ in range(SESSIONS)]


def _series(snapshot):
    return {
        tuple(sorted(entry["labels"].items())): entry["value"]
        for entry in snapshot["values"]
    }


def test_service_and_inprocess_commands_count_alike(trapped_decks):
    service, service_timed, service_journals = _observed(_service_journals)
    inprocess, inprocess_timed, inprocess_journals = _observed(_inprocess_journals)

    # Both paths guarded the same commands to the same verdicts ...
    assert service_journals == inprocess_journals
    # ... and counted them alike, family by family.
    for name in MOVED:
        assert service[name] == inprocess[name], name
    guarded = SESSIONS * len(SCRIPT)
    assert service_timed == inprocess_timed == guarded

    # The equality is only worth something if the script reached every
    # branch of the projection.
    def labels(name, label):
        return {dict(key)[label] for key in _series(service[name])}

    assert labels("rabit_command_verdicts_total", "outcome") == {
        "allowed", "invalid_command", "invalid_trajectory", "device_malfunction",
    }
    assert labels("es_trajectory_verdicts_total", "verdict") == {"clear", "collision"}
    assert labels("rabit_rule_cache_lookups_total", "result") == {"hit", "miss"}
    assert labels("rabit_state_comparisons_total", "outcome") == {"match", "mismatch"}
    assert _series(service["rabit_commands_intercepted_total"])[
        (("device", "ur3e"), ("label", "go_home"))
    ] == SESSIONS * 4


def _projection(records):
    """Each moved family's series, computed from the records alone."""
    expected = {name: Counter() for name in MOVED}
    buckets = (8, 16, 31, 64, 128, 256)
    for record in records:
        alert = record.alert
        expected["rabit_commands_intercepted_total"][
            (("device", record.device), ("label", record.label.value))
        ] += 1
        outcome = alert.kind.value if alert else "allowed"
        expected["rabit_command_verdicts_total"][(("outcome", outcome),)] += 1
        if alert is not None:
            expected["rabit_alerts_total"][(("kind", alert.kind.value),)] += 1
        if record.rule_cache in ("hit", "miss"):
            expected["rabit_rule_cache_lookups_total"][
                (("result", record.rule_cache),)
            ] += 1
        if record.state_after is not None:
            mismatch = alert is not None and alert.kind is AlertKind.DEVICE_MALFUNCTION
            expected["rabit_state_comparisons_total"][
                (("outcome", "mismatch" if mismatch else "match"),)
            ] += 1
        sweep = record.sweep
        if sweep is not None:
            expected["es_trajectory_checks_total"][(("path", sweep.path),)] += 1
            verdict = "collision" if sweep.verdict else "clear"
            expected["es_trajectory_verdicts_total"][(("verdict", verdict),)] += 1
            expected["es_segments_swept_total"][()] += sweep.samples
            expected["es_sweep_samples"][("le", bisect.bisect_left(buckets, sweep.samples))] += 1
            expected["es_sweep_samples"]["sum"] += sweep.samples
    return expected


def test_preset_workload_families_equal_their_record_projection():
    snapshots, timed, (outcome, records) = _observed(
        lambda: run_preset_workload("solubility", {})
    )
    assert outcome["completed"] and len(records) == outcome["commands"] > 0
    expected = _projection(records)

    histogram = expected.pop("es_sweep_samples")
    for name, series in expected.items():
        assert Counter(_series(snapshots[name])) == +series, name
    (samples,) = snapshots["es_sweep_samples"]["values"]
    assert samples["sum"] == histogram.pop("sum")
    assert samples["counts"] == [histogram[("le", i)] for i in range(7)]
    assert samples["count"] == sum(histogram.values()) > 0
    # Every command was guarded, so every one was timed.
    assert timed == len(records)
