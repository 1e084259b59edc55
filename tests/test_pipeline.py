"""Tests for the three-stage validation pipeline."""

import pytest

from repro.lab.pipeline import ThreeStageValidator
from repro.lab.stage import Stage
from repro.workflow import build_preset


def mutate_dosing_pickup_too_low(deck):
    """The candidate edit under test: a Bug-D-style z error in the
    location table (grid pickup deep inside the grid body)."""
    deck.world.locations.get("grid_a1").set_coord("ur3e", [0.30, -0.05, 0.02])


class TestSafeWorkflowClimbs:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return ThreeStageValidator().validate(build_preset("solubility"))

    def test_promoted_through_all_stages(self, pipeline):
        assert pipeline.promoted_to_production
        assert [o.stage for o in pipeline.outcomes] == [
            Stage.SIMULATOR,
            Stage.TESTBED,
            Stage.PRODUCTION,
        ]

    def test_no_risk_was_ever_exposed(self, pipeline):
        assert pipeline.total_risk_exposure == 0.0
        assert pipeline.rejected_at is None


class TestDefectiveWorkflowStopsEarly:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return ThreeStageValidator().validate(
            build_preset("solubility"), mutate_deck=mutate_dosing_pickup_too_low
        )

    def test_rejected_at_the_simulator_stage(self, pipeline):
        assert not pipeline.promoted_to_production
        assert pipeline.rejected_at is Stage.SIMULATOR
        assert len(pipeline.outcomes) == 1  # never climbed further

    def test_rejection_is_preemptive(self, pipeline):
        outcome = pipeline.outcomes[0]
        assert outcome.result.stopped_by_rabit
        assert outcome.damage_events == 0
        assert outcome.risk_exposure == 0.0

    def test_describe_mentions_stage_and_alert(self, pipeline):
        text = pipeline.outcomes[0].describe()
        assert "simulator" in text and "REJECTED" in text


class TestStageSubsets:
    def test_production_only_run(self):
        pipeline = ThreeStageValidator(stages=(Stage.PRODUCTION,)).validate(
            build_preset("solubility")
        )
        assert pipeline.promoted_to_production
        assert len(pipeline.outcomes) == 1

    def test_rejects_a_workflow_for_another_deck(self):
        with pytest.raises(ValueError, match="Hein deck"):
            ThreeStageValidator().validate(build_preset("testbed_fig5"))
