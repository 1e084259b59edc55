"""Deck-level integration tests: Hein, Berlinguette, and the three-stage
framework — including the paper's zero-false-positives property on every
safe workflow under every monitor configuration."""

import pytest

from repro.core.config import validate_config
from repro.core.monitor import RabitOptions
from repro.devices.base import DeviceKind
from repro.lab.decks import make_rabit
from repro.lab.berlinguette import build_berlinguette_deck
from repro.lab.hein import build_hein_deck
from repro.lab.stage import STAGE_PROFILES, Stage
from repro.workflow import build_context, build_preset, execute_dag, run_preset


def es_options(use_es):
    return RabitOptions.modified(use_extended_simulator=use_es)


class TestHeinDeck:
    def test_config_validates_cleanly(self):
        deck = build_hein_deck()
        assert [i for i in validate_config(deck.config) if i.severity == "error"] == []

    def test_every_location_reachable(self):
        deck = build_hein_deck()
        for loc in deck.world.locations:
            target = loc.coord_for("ur3e")
            plan = deck.ur3e.kinematics.plan_move(target)
            assert not plan.skipped, f"{loc.name} unreachable for UR3e"

    def test_initial_vials_on_grid(self):
        deck = build_hein_deck()
        assert deck.world.occupant("grid_a1") == "vial_1"
        assert deck.world.occupant("grid_a2") == "vial_2"

    @pytest.mark.parametrize("use_es", [False, True], ids=["plain", "with-es"])
    def test_safe_solubility_run_has_zero_false_positives(self, use_es):
        _, ctx, result = run_preset("solubility", options=es_options(use_es))
        assert result.completed
        assert ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()

    def test_safe_run_chemistry(self):
        params = {"amount_mg": 5, "initial_solvent_ml": 4, "dissolution_rounds": 2}
        _, ctx, _ = run_preset("solubility", params)
        vial = ctx.deck.vials["vial_1"]
        assert vial.contents.solid_mg == pytest.approx(5.0)
        assert vial.contents.liquid_ml == pytest.approx(8.0)  # 4 + 2 + 2
        assert vial.resting_at == "grid_a1"
        assert vial.stoppered and not vial.broken

    def test_safe_run_under_initial_revision_also_clean(self):
        _, ctx, result = run_preset("solubility", options=RabitOptions.initial())
        assert result.completed and ctx.rabit.alert_count == 0


class TestTestbedWorkflows:
    @pytest.mark.parametrize("use_es", [False, True], ids=["plain", "with-es"])
    def test_fig5_workflow_zero_false_positives(self, use_es):
        _, ctx, result = run_preset("testbed_fig5", options=es_options(use_es))
        assert result.completed
        assert ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()

    def test_fig5_dosing_outcome(self):
        _, ctx, _ = run_preset("testbed_fig5")
        vial = ctx.deck.vials["vial_t1"]
        assert vial.contents.solid_mg == pytest.approx(5.0)
        assert vial.resting_at == "grid_nw_viperx"

    @pytest.mark.parametrize("use_es", [False, True], ids=["plain", "with-es"])
    def test_centrifuge_leg_zero_false_positives(self, use_es):
        _, ctx, result = run_preset("centrifuge", options=es_options(use_es))
        assert result.completed and ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()


class TestBerlinguette:
    def test_all_devices_categorize_into_four_types(self):
        deck = build_berlinguette_deck()
        kinds = set(deck.categorization().values())
        assert kinds <= {k.value for k in DeviceKind}
        # The §V-B mapping specifics:
        assert deck.categorization()["decapper"] == "action_device"
        assert deck.categorization()["syringe_pump"] == "dosing_system"
        assert deck.categorization()["xrf"] == "action_device"

    def test_no_custom_rules_enabled(self):
        deck = build_berlinguette_deck()
        assert deck.model.custom_rule_ids == []

    @pytest.mark.parametrize("solvent_only", [False, True], ids=["full", "solvent-only"])
    def test_spray_coating_clean_under_general_rules(self, solvent_only):
        _, ctx, result = run_preset("spray_coating", {"solvent_only": solvent_only})
        assert result.completed and ctx.rabit.alert_count == 0
        # Solvent-only runs waste nothing worse than low-severity events.
        assert all(d.severity.value == "low" for d in ctx.world.damage_log)

    def test_general_rules_still_fire(self):
        from repro.core.errors import SafetyViolation

        deck = build_berlinguette_deck()
        rabit, proxies, _ = make_rabit(deck)
        with pytest.raises(SafetyViolation) as excinfo:
            proxies["ur5e"].move_to_location("bdosing_interior")  # door closed
        assert excinfo.value.alert.rule_id == "G1"

    def test_threshold_rule_on_spray_nozzle(self):
        from repro.core.errors import SafetyViolation

        deck = build_berlinguette_deck()
        rabit, proxies, _ = make_rabit(deck)
        with pytest.raises(SafetyViolation) as excinfo:
            proxies["nozzle"].start_action(80.0)
        assert excinfo.value.alert.rule_id == "G11"


class TestStageFramework:
    def test_table1_band_ordering(self):
        # The exact High/Medium/Low cells of Table I.
        expectations = {
            (Stage.SIMULATOR, "speed"): "High",
            (Stage.TESTBED, "speed"): "Medium",
            (Stage.PRODUCTION, "speed"): "Low",
            (Stage.SIMULATOR, "precision"): "Low",
            (Stage.TESTBED, "precision"): "Medium",
            (Stage.PRODUCTION, "precision"): "High",
            (Stage.SIMULATOR, "accuracy"): "Low",
            (Stage.PRODUCTION, "accuracy"): "High",
            (Stage.SIMULATOR, "risk"): "Low",
            (Stage.PRODUCTION, "risk"): "High",
        }
        for (stage, axis), band in expectations.items():
            assert STAGE_PROFILES[stage].band(axis) == band

    def test_quantities_consistent_with_bands(self):
        sim = STAGE_PROFILES[Stage.SIMULATOR]
        tb = STAGE_PROFILES[Stage.TESTBED]
        prod = STAGE_PROFILES[Stage.PRODUCTION]
        assert sim.time_scale < tb.time_scale <= prod.time_scale
        assert sim.position_noise_sigma <= prod.position_noise_sigma < tb.position_noise_sigma
        assert sim.result_accuracy < tb.result_accuracy < prod.result_accuracy
        assert sim.damage_cost < tb.damage_cost < prod.damage_cost

    def test_unknown_axis_rejected(self):
        with pytest.raises(KeyError):
            STAGE_PROFILES[Stage.SIMULATOR].band("charm")


class TestCrystallizationWorkflow:
    """The second Hein production workflow (thermoshaker agitation)."""

    @pytest.mark.parametrize("use_es", [False, True], ids=["plain", "with-es"])
    def test_zero_false_positives(self, use_es):
        _, ctx, result = run_preset("crystallization", options=es_options(use_es))
        assert result.completed and ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()

    def test_chemistry_and_final_state(self):
        _, ctx, _ = run_preset("crystallization", {"amount_mg": 4, "solvent_ml": 3})
        vial = ctx.deck.vials["vial_2"]
        assert vial.contents.solid_mg == pytest.approx(4.0)
        assert vial.contents.liquid_ml == pytest.approx(3.0)
        assert vial.resting_at == "grid_a2" and vial.stoppered

    def test_back_to_back_with_solubility_run(self):
        ctx = build_context("hein")
        assert execute_dag(build_preset("solubility"), ctx).completed
        assert execute_dag(build_preset("crystallization"), ctx).completed
        assert ctx.rabit.alert_count == 0
        assert ctx.world.damage_log == ()

    def test_shaker_overspeed_is_vetoed(self):
        _, _, result = run_preset("crystallization", {"shake_rpm": 2000.0})  # > 1500
        assert result.stopped_by_rabit
        assert result.alert.rule_id == "G11"
