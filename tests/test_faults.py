"""The §IV campaign: mutation operators and the 16-bug evaluation.

The headline assertions reproduce the paper exactly:

- initial RABIT detects 8/16 (50 %);
- modified RABIT detects 12/16 (75 %) — Table V's configuration;
- modified + Extended Simulator detects 13/16 (81 %);
- Table V per-severity rows: Low 3/1, Medium-Low 1/1, Medium-High 6/4,
  High 6/6;
- zero false positives on the unmutated workflows.
"""

import pytest

from repro.devices.world import DamageSeverity
from repro.faults.campaign import CAMPAIGN_BUGS, run_bug
from repro.faults.mutation import (
    DeleteLine,
    InsertAfter,
    MutateLocation,
    ReplaceLine,
    SwapLines,
    apply_mutations,
)
from repro.workflow import WorkflowDAG, WorkflowError, WorkflowNode


def dag(*ids):
    """A linear DAG of stub nodes (surgery never looks at the steps)."""
    script = WorkflowDAG("script")
    for node_id in ids:
        script.then(node_id, "stub")
    return script


def order(script):
    """Node ids in execution order along the success edges."""
    ids, node = [], script.entry
    while node is not None:
        ids.append(node)
        node = script.successor(node, "success")
    return ids


def node(node_id):
    return WorkflowNode(node_id, "stub")


class TestMutationOperators:
    def test_delete(self):
        script = dag("a", "b", "c")
        DeleteLine("b").apply_to_dag(script)
        assert order(script) == ["a", "c"]

    def test_delete_unknown_raises(self):
        with pytest.raises(WorkflowError, match="unknown node 'zz'"):
            DeleteLine("zz").apply_to_dag(dag("a"))

    @pytest.mark.parametrize(
        "mutation",
        [
            ReplaceLine("zz", (node("z2"),)),
            InsertAfter("zz", (node("x"),)),
            SwapLines("a", "zz"),
        ],
        ids=["replace", "insert", "swap"],
    )
    def test_other_operators_reject_unknown_nodes(self, mutation):
        script = dag("a")
        with pytest.raises(WorkflowError, match="unknown node 'zz'"):
            mutation.apply_to_dag(script)
        assert order(script) == ["a"]

    def test_replace(self):
        script = dag("a", "b", "c")
        ReplaceLine("b", (node("b2"),)).apply_to_dag(script)
        assert order(script) == ["a", "b2", "c"]
        ReplaceLine("a", (node("a2"), node("a3"))).apply_to_dag(script)
        assert order(script) == ["a2", "a3", "b2", "c"]

    def test_insert_after(self):
        script = dag("a", "b")
        InsertAfter("a", (node("x"), node("y"))).apply_to_dag(script)
        assert order(script) == ["a", "x", "y", "b"]

    def test_swap(self):
        script = dag("a", "b", "c")
        SwapLines("a", "c").apply_to_dag(script)
        assert order(script) == ["c", "b", "a"]
        SwapLines("b", "a").apply_to_dag(script)
        assert order(script) == ["c", "a", "b"]

    def test_mutate_location_edits_deck(self):
        from repro.testbed.deck import build_testbed_deck

        deck = build_testbed_deck()
        MutateLocation("dosing_pickup_viperx", "viperx", (0.15, 0.45, 0.08)).apply_to_deck(
            deck.world
        )
        assert deck.world.locations.get("dosing_pickup_viperx").coord_for("viperx")[2] == pytest.approx(0.08)

    def test_apply_mutations_composes(self):
        from repro.testbed.deck import build_testbed_deck

        deck = build_testbed_deck()
        out = apply_mutations(
            dag("a", "b", "c"), deck.world, [DeleteLine("a"), SwapLines("b", "c")]
        )
        assert order(out) == ["c", "b"]


class TestCampaignInventory:
    def test_sixteen_bugs(self):
        assert len(CAMPAIGN_BUGS) == 16

    def test_severity_distribution_matches_table_v(self):
        counts = {}
        for bug in CAMPAIGN_BUGS:
            counts[bug.severity] = counts.get(bug.severity, 0) + 1
        assert counts == {
            DamageSeverity.LOW: 3,
            DamageSeverity.MEDIUM_LOW: 1,
            DamageSeverity.MEDIUM_HIGH: 6,
            DamageSeverity.HIGH: 6,
        }

    def test_all_four_unsafe_categories_present(self):
        assert {bug.category for bug in CAMPAIGN_BUGS} == {1, 2, 3, 4}

    def test_unique_ids(self):
        ids = [bug.bug_id for bug in CAMPAIGN_BUGS]
        assert len(ids) == len(set(ids))

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError, match="unknown config"):
            run_bug(CAMPAIGN_BUGS[0], "nightly")


class TestHeadlineNumbers:
    def test_initial_detects_8_of_16(self, campaign_result):
        assert campaign_result.detected_count("initial") == 8
        assert campaign_result.detection_rate("initial") == pytest.approx(0.50)

    def test_modified_detects_12_of_16(self, campaign_result):
        assert campaign_result.detected_count("modified") == 12
        assert campaign_result.detection_rate("modified") == pytest.approx(0.75)

    def test_extended_simulator_detects_13_of_16(self, campaign_result):
        assert campaign_result.detected_count("modified_es") == 13
        assert campaign_result.detection_rate("modified_es") == pytest.approx(0.8125)

    def test_table_v_rows(self, campaign_result):
        rows = campaign_result.by_severity("modified")
        assert rows[DamageSeverity.LOW] == (3, 1)
        assert rows[DamageSeverity.MEDIUM_LOW] == (1, 1)
        assert rows[DamageSeverity.MEDIUM_HIGH] == (6, 4)
        assert rows[DamageSeverity.HIGH] == (6, 6)

    def test_every_outcome_matches_paper(self, campaign_result):
        assert campaign_result.mismatches() == []

    def test_detection_monotone_across_revisions(self, campaign_result):
        by_bug = {}
        for outcome in campaign_result.outcomes:
            by_bug.setdefault(outcome.bug.bug_id, {})[outcome.config] = outcome.detected
        for bug_id, per_config in by_bug.items():
            # A later revision never loses a detection an earlier one had.
            assert per_config["initial"] <= per_config["modified"] <= per_config["modified_es"], bug_id


class TestPaperStories:
    def test_detected_bugs_cause_no_damage(self, campaign_result):
        for outcome in campaign_result.outcomes:
            if outcome.detected and outcome.bug.bug_id != "MH2":
                # Preemptive stop: nothing physical happened.  (MH2's
                # detection is also preemptive; included for clarity.)
                assert outcome.damage == (), outcome.bug.bug_id

    def test_missed_bugs_cause_ground_truth_harm(self, campaign_result):
        # Every miss under the modified revision corresponds to real
        # physical damage in the world — the misses matter.
        for outcome in campaign_result.outcomes:
            if outcome.config == "modified" and not outcome.detected:
                assert outcome.damage != (), outcome.bug.bug_id

    def test_bug_a_detected_by_rule_g1(self, campaign_result):
        outcome = next(
            o for o in campaign_result.outcomes
            if o.bug.bug_id == "H1" and o.config == "initial"
        )
        assert outcome.detected and "[G1]" in outcome.alert

    def test_bug_d_initial_breaks_vial_modified_prevents(self, campaign_result):
        initial = next(
            o for o in campaign_result.outcomes
            if o.bug.bug_id == "ML1" and o.config == "initial"
        )
        modified = next(
            o for o in campaign_result.outcomes
            if o.bug.bug_id == "ML1" and o.config == "modified"
        )
        assert not initial.detected
        assert any(d.kind == "vial_crushed" for d in initial.damage)
        assert modified.detected and "held vial" in modified.alert

    def test_bug_b_collides_arms_in_ground_truth(self, campaign_result):
        outcome = next(
            o for o in campaign_result.outcomes
            if o.bug.bug_id == "MH4" and o.config == "modified_es"
        )
        assert not outcome.detected
        assert any(d.kind == "arm_collision" for d in outcome.damage)

    def test_bug_c_completes_without_vial(self, campaign_result):
        outcome = next(
            o for o in campaign_result.outcomes
            if o.bug.bug_id == "L2" and o.config == "modified_es"
        )
        assert not outcome.detected and outcome.completed
        assert any(d.kind == "solid_spill" for d in outcome.damage)

    def test_silent_skip_only_caught_by_es(self, campaign_result):
        per_config = {
            o.config: o for o in campaign_result.outcomes if o.bug.bug_id == "MH3"
        }
        assert not per_config["initial"].detected
        assert not per_config["modified"].detected
        assert per_config["modified_es"].detected
        assert "trajectory" in per_config["modified_es"].alert
