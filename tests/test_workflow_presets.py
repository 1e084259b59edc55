"""Every workflow preset pinned to its recorded journal digest.

The digests in ``fixtures/preset_journal_digests.json`` are the sha256
of the canonical journal of each hardcoded builder the presets replaced
(recorded from the deleted builders, which matched these presets byte
for byte).  A journal renders through
:func:`repro.workflow.journal.run_journal`, so an unchanged digest
means the same commands with the same positional args, the same
virtual-clock timestamps, the same action labels and resolved
locations, the same alerts, and the same executed node ids — not
merely "similar outcomes".
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.workflow import (
    PRESETS,
    build_context,
    build_preset,
    execute_dag,
    journal_bytes,
    preset_matrix,
    run_journal,
    run_preset,
)

DIGESTS = json.loads(
    (Path(__file__).parent / "fixtures" / "preset_journal_digests.json").read_text()
)


def _journal_bytes(ctx, result) -> bytes:
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


def _check(case: str):
    """Run the digest fixture's *case*; assert its journal digest."""
    entry = DIGESTS[case]
    _dag, ctx, result = run_preset(entry["preset"], entry["params"])
    digest = hashlib.sha256(_journal_bytes(ctx, result)).hexdigest()
    assert digest == entry["sha256"], case
    return result


def test_digest_fixture_covers_every_preset():
    assert {entry["preset"] for entry in DIGESTS.values()} == set(PRESETS)


# ---------------------------------------------------------------------------
# Hein production workflows
# ---------------------------------------------------------------------------


class TestHeinPresets:
    def test_solubility_defaults(self):
        assert _check("solubility").completed

    def test_solubility_parameterized(self):
        assert _check("solubility_parameterized").completed

    def test_crystallization_defaults(self):
        assert _check("crystallization").completed

    def test_crystallization_parameterized(self):
        _check("crystallization_parameterized")


# ---------------------------------------------------------------------------
# Berlinguette spray coating
# ---------------------------------------------------------------------------


class TestSprayCoatingPreset:
    @pytest.mark.parametrize("solvent_only", [False, True])
    def test_spray_coating(self, solvent_only):
        result = _check("spray_coating_solvent_only" if solvent_only else "spray_coating")
        assert result.completed


# ---------------------------------------------------------------------------
# Testbed Fig. 5 and the Bug A/B/C variants
# ---------------------------------------------------------------------------


def _campaign_bug_bytes(bug_id: str) -> bytes:
    """The journal of campaign bug *bug_id*'s mutations applied to its
    preset under modified RABIT — the fault injector's path to the same
    program the Bug A/B/C presets spell out."""
    from repro.faults.campaign import CAMPAIGN_BUGS
    from repro.faults.mutation import apply_mutations

    bug = next(b for b in CAMPAIGN_BUGS if b.bug_id == bug_id)
    dag = build_preset(bug.workflow)
    ctx = build_context(dag.deck, dag.deck_params, dag.prepare)
    apply_mutations(dag, ctx.world, bug.mutations)
    return _journal_bytes(ctx, execute_dag(dag, ctx))


class TestTestbedPresets:
    def test_fig5_safe(self):
        assert _check("testbed_fig5").completed

    def test_bug_a_door_deleted(self):
        """Bug A (campaign H1): detected — the run stops on the alert."""
        result = _check("testbed_bug_a")
        assert result.stopped_by_rabit and not result.completed
        digest = hashlib.sha256(_campaign_bug_bytes("H1")).hexdigest()
        assert digest == DIGESTS["testbed_bug_a"]["sha256"]

    def test_bug_b_stray_ned2_move(self):
        """Bug B (campaign MH4): completes undetected, as in the paper."""
        assert _check("testbed_bug_b").completed  # undetected
        digest = hashlib.sha256(_campaign_bug_bytes("MH4")).hexdigest()
        assert digest == DIGESTS["testbed_bug_b"]["sha256"]

    def test_bug_c_pick_deleted(self):
        """Bug C (campaign L2): completes undetected (no pressure sensor)."""
        assert _check("testbed_bug_c").completed
        digest = hashlib.sha256(_campaign_bug_bytes("L2")).hexdigest()
        assert digest == DIGESTS["testbed_bug_c"]["sha256"]

    @pytest.mark.parametrize("spin_rpm", [3000.0, 2000.0])
    def test_centrifuge(self, spin_rpm):
        """The prepared-vial leg: declarative ``prepare`` reproduces the
        hand-poked vial state byte-for-byte (seeded tracking included)."""
        assert _check(f"centrifuge_{spin_rpm:g}").completed


# ---------------------------------------------------------------------------
# Two-door lab
# ---------------------------------------------------------------------------


class TestTwoDoorPreset:
    @pytest.mark.parametrize("amount_mg", [3.0, 2.0])
    def test_two_door(self, amount_mg):
        assert _check(f"two_door_{amount_mg:g}").completed


# ---------------------------------------------------------------------------
# The parameterized preset matrix
# ---------------------------------------------------------------------------


class TestPresetMatrix:
    def test_every_entry_builds_a_valid_dag(self):
        matrix = preset_matrix()
        assert len(matrix) >= 15
        for name, params in matrix:
            dag = build_preset(name, params)
            dag.validate()  # raises on any structural or binding error
            assert len(dag.nodes) > 0

    def test_matrix_covers_every_safe_preset(self):
        covered = {name for name, _ in preset_matrix()}
        bug_variants = {"testbed_bug_a", "testbed_bug_b", "testbed_bug_c"}
        assert covered == set(PRESETS) - bug_variants

    def test_parameterization_changes_the_dag(self):
        base = build_preset("solubility", {"dissolution_rounds": 1})
        more = build_preset("solubility", {"dissolution_rounds": 3})
        assert len(more.nodes) == len(base.nodes) + 6  # 3 nodes per round

    def test_one_matrix_entry_runs_clean(self):
        """One cheap end-to-end spot check (the full matrix runs nightly)."""
        _dag, _ctx, res = run_preset("two_door", {"amount_mg": 2.0})
        assert res.completed and res.alert is None
