"""Stateful property test: RABIT never false-alarms on legal operation.

The paper's strongest usability claim is that "throughout testing, RABIT
never produced any false positives".  This machine generates *random but
legal* command sequences on the Hein deck — door cycles, vial ferrying,
dosing, heating, capping — tracking just enough bookkeeping to only emit
commands a careful researcher could issue.  The invariants:

- RABIT raises no alert on any emitted command;
- the ground-truth world records no damage;
- RABIT's tracked belief about the vial's location matches ground truth.

Any false positive (or physics/belief divergence) surfaces as a minimal
failing command sequence, courtesy of hypothesis shrinking.
"""

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.monitor import RabitOptions
from repro.lab.decks import make_rabit
from repro.lab.hein import build_hein_deck


class LegalOperationMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.deck = build_hein_deck()
        self.rabit, self.proxies, _ = make_rabit(self.deck)
        self.ur3e = self.proxies["ur3e"]
        self.dosing = self.proxies["dosing_device"]
        self.hotplate = self.proxies["hotplate"]
        self.vial = self.proxies["vial_1"]
        # Script-side bookkeeping (what a careful researcher would know).
        self.door_open = False
        self.holding = False
        self.vial_at = "grid_a1"  # "grid_a1" | "dosing_interior" | "hotplate_top"
        self.arm_at = "home"
        self.vial_solid = 0.0
        self.stoppered = True
        self.hotplate_on = False

    # -- door cycles ---------------------------------------------------------

    @precondition(lambda self: not self.door_open and self.arm_at != "dosing_interior")
    @rule()
    def open_door(self):
        self.dosing.open_door()
        self.door_open = True

    @precondition(
        lambda self: self.door_open
        and self.arm_at != "dosing_interior"
        and not self.dosing_running()
    )
    @rule()
    def close_door(self):
        self.dosing.close_door()
        self.door_open = False

    def dosing_running(self):
        return bool(self.deck.devices["dosing_device"].active)

    # -- arm motion -------------------------------------------------------------

    @rule()
    def go_home(self):
        self.ur3e.go_to_home_pose()
        self.arm_at = "home"

    @precondition(lambda self: self.arm_at != "dosing_interior")
    @rule()
    def stage_at_grid(self):
        self.ur3e.move_to_location("grid_a1_safe")
        self.arm_at = "grid_a1_safe"

    @precondition(lambda self: self.arm_at != "dosing_interior")
    @rule()
    def stage_at_hotplate(self):
        self.ur3e.move_to_location("hotplate_safe")
        self.arm_at = "hotplate_safe"

    # -- vial ferrying --------------------------------------------------------------

    @precondition(
        lambda self: not self.holding and self.vial_at == "grid_a1"
        and self.arm_at == "grid_a1_safe"
    )
    @rule()
    def pick_from_grid(self):
        self.ur3e.pick_up_vial("grid_a1")
        self.ur3e.move_to_location("grid_a1_safe")
        self.holding = True
        self.vial_at = "held"

    @precondition(lambda self: self.holding and self.arm_at == "grid_a1_safe")
    @rule()
    def place_on_grid(self):
        self.ur3e.place_vial("grid_a1")
        self.ur3e.move_to_location("grid_a1_safe")
        self.holding = False
        self.vial_at = "grid_a1"

    @precondition(
        lambda self: self.holding and self.door_open and self.arm_at != "dosing_interior"
    )
    @rule()
    def place_in_dosing(self):
        self.ur3e.move_to_location("dosing_approach")
        self.ur3e.place_vial("dosing_interior")
        self.ur3e.move_to_location("dosing_approach")
        self.arm_at = "dosing_approach"
        self.holding = False
        self.vial_at = "dosing_interior"

    @precondition(
        lambda self: not self.holding
        and self.vial_at == "dosing_interior"
        and self.door_open
    )
    @rule()
    def pick_from_dosing(self):
        self.ur3e.move_to_location("dosing_approach")
        self.ur3e.pick_up_vial("dosing_interior")
        self.ur3e.move_to_location("dosing_approach")
        self.arm_at = "dosing_approach"
        self.holding = True
        self.vial_at = "held"

    @precondition(
        lambda self: self.holding and self.arm_at == "hotplate_safe" and not self.hotplate_on
    )
    @rule()
    def place_on_hotplate(self):
        self.ur3e.place_vial("hotplate_top")
        self.ur3e.move_to_location("hotplate_safe")
        self.holding = False
        self.vial_at = "hotplate_top"

    @precondition(
        lambda self: not self.holding
        and self.vial_at == "hotplate_top"
        and not self.hotplate_on
        and self.arm_at == "hotplate_safe"
    )
    @rule()
    def pick_from_hotplate(self):
        self.ur3e.pick_up_vial("hotplate_top")
        self.ur3e.move_to_location("hotplate_safe")
        self.holding = True
        self.vial_at = "held"

    # -- stopper ---------------------------------------------------------------------

    @precondition(lambda self: self.stoppered and self.vial_at == "grid_a1")
    @rule()
    def decap(self):
        self.vial.decap_vial()
        self.stoppered = False

    @precondition(lambda self: not self.stoppered and self.vial_at == "grid_a1")
    @rule()
    def cap(self):
        self.vial.cap_vial()
        self.stoppered = True

    # -- dosing -----------------------------------------------------------------------

    @precondition(
        lambda self: self.vial_at == "dosing_interior"
        and not self.door_open  # closed for dosing (G9)
        and not self.stoppered  # open vial (G7)
        and self.vial_solid <= 4.0  # capacity headroom (G8)
    )
    @rule()
    def dose_solid(self):
        self.dosing.dose_solid(3.0)
        self.dosing.stop_action()
        self.vial_solid += 3.0

    # -- heating -----------------------------------------------------------------------

    @precondition(
        lambda self: self.vial_at == "hotplate_top" and self.vial_solid > 0
        and not self.hotplate_on
    )
    @rule()
    def heat(self):
        self.hotplate.stir_solution(60.0)
        self.hotplate_on = True

    @precondition(lambda self: self.hotplate_on)
    @rule()
    def stop_heat(self):
        self.hotplate.stop_action()
        self.hotplate_on = False

    # -- invariants ----------------------------------------------------------------------

    @invariant()
    def no_false_positives(self):
        assert self.rabit.alert_count == 0, [str(a) for a in self.rabit.alerts]

    @invariant()
    def no_physical_damage(self):
        assert self.deck.world.damage_log == ()

    @invariant()
    def belief_matches_ground_truth(self):
        believed = self.rabit.state.get("container_at", "vial_1")
        actual = self.deck.vials["vial_1"].resting_at
        assert believed == actual


LegalOperationMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)
TestLegalOperations = LegalOperationMachine.TestCase


# ---------------------------------------------------------------------------
# Rule-verdict cache parity: cached and uncached monitors are observationally
# identical.
# ---------------------------------------------------------------------------

#: Command palette for the parity fuzz: a deliberate mix of legal moves and
#: rule-violating ones (dosing with the door open, double-picks, ferrying
#: to an occupied slot...), each applied blindly regardless of prior state.
_PARITY_COMMANDS = [
    ("open_door", lambda p: p["dosing_device"].open_door()),
    ("close_door", lambda p: p["dosing_device"].close_door()),
    ("go_home", lambda p: p["ur3e"].go_to_home_pose()),
    ("stage_grid", lambda p: p["ur3e"].move_to_location("grid_a1_safe")),
    ("stage_hotplate", lambda p: p["ur3e"].move_to_location("hotplate_safe")),
    ("stage_dosing", lambda p: p["ur3e"].move_to_location("dosing_approach")),
    ("pick_grid", lambda p: p["ur3e"].pick_up_vial("grid_a1")),
    ("place_grid", lambda p: p["ur3e"].place_vial("grid_a1")),
    ("pick_dosing", lambda p: p["ur3e"].pick_up_vial("dosing_interior")),
    ("place_dosing", lambda p: p["ur3e"].place_vial("dosing_interior")),
    ("pick_hotplate", lambda p: p["ur3e"].pick_up_vial("hotplate_top")),
    ("place_hotplate", lambda p: p["ur3e"].place_vial("hotplate_top")),
    ("dose", lambda p: p["dosing_device"].dose_solid(3.0)),
    ("stop_dosing", lambda p: p["dosing_device"].stop_action()),
    ("heat", lambda p: p["hotplate"].stir_solution(60.0)),
    ("stop_heat", lambda p: p["hotplate"].stop_action()),
    ("cap", lambda p: p["vial_1"].cap_vial()),
    ("decap", lambda p: p["vial_1"].decap_vial()),
]


def _fresh_monitor(cache_size):
    """A Hein deck with a fail-safe (non-stopping) RABIT wired on."""
    deck = build_hein_deck()
    options = RabitOptions.modified(
        preemptive_stop=False, rule_cache_size=cache_size
    )
    rabit, proxies, _ = make_rabit(deck, options=options)
    return rabit, proxies


def _alert_trace(rabit):
    return [
        (a.kind, a.rule_id, a.message, a.command) for a in rabit.alerts
    ]


class TestRuleCacheParity:
    """The memoized rulebase path may never change observable behaviour."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.sampled_from(_PARITY_COMMANDS), min_size=1, max_size=30
        )
    )
    def test_cached_and_uncached_monitors_agree(self, commands):
        cached, cached_proxies = _fresh_monitor(cache_size=256)
        plain, plain_proxies = _fresh_monitor(cache_size=0)
        assert cached.rule_cache is not None
        assert plain.rule_cache is None

        for name, run in commands:
            run(cached_proxies)
            run(plain_proxies)
            # Alerts must match *after every command*, not just at the
            # end — a stale verdict would fire (or suppress) an alert at
            # the wrong step even if the final tallies coincided.
            assert _alert_trace(cached) == _alert_trace(plain), name

        # And the two monitors must have reached the same belief state.
        assert cached.state.fingerprint() == plain.state.fingerprint()

    def test_repeated_commands_actually_hit_the_cache(self):
        rabit, proxies = _fresh_monitor(cache_size=256)
        for _ in range(5):
            proxies["ur3e"].go_to_home_pose()  # identical (call, state) key
        stats = rabit.rule_cache.stats()
        assert stats["hits"] >= 3
        assert rabit.rule_cache.hit_rate > 0.0

    def test_rulebase_mutation_invalidates_cached_verdicts(self):
        from repro.core.actions import ActionLabel
        from repro.core.rulebase import Rule, RuleScope

        rabit, proxies = _fresh_monitor(cache_size=256)
        proxies["ur3e"].go_to_home_pose()
        assert rabit.alert_count == 0
        rabit.rulebase.add(
            Rule(
                rule_id="T1",
                scope=RuleScope.GENERAL,
                description="no homing (test)",
                labels=frozenset({ActionLabel.GO_HOME}),
                check=lambda ctx: "homing forbidden",
            )
        )
        proxies["ur3e"].go_to_home_pose()
        assert rabit.alert_count == 1, [str(a) for a in rabit.alerts]
