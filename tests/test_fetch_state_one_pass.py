"""FetchState, compare and adopt in one pass, against the two-step oracle.

After every command the monitor polls each device once and writes every
mapped status entry straight into ``S_expected``
(``Rabit._fetch_and_adopt`` and ``LabState.adopt_observed``), which then
becomes ``S_current``.  The reference builds the observed snapshot first
and compares and merges it with ``LabState.diff_observable`` and
``LabState.merge_observed``.  These tests pin that the pass leaves the
same entries (the same objects), value types, reprs and tokens as the
merge, and reports the mismatch ``diff_observable`` lists first — a
report ``float()`` refuses, or a NaN, included; and that on real decks
a jammed door raises the same alert as before, a wrong-typed or NaN
dosing report raises "Device malfunction!", and every adopted state
reports the token of its entries written through ``set``.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import AlertKind
from repro.core.model import RabitLabModel
from repro.core.monitor import _STATUS_KEY_TO_VAR, Rabit
from repro.core.state import ALL_VARS, LabState
from repro.lab.decks import build_deck, make_rabit
from repro.serve.session import default_serve_options
from repro.trace.workloads import PRESET_WORKLOADS, run_preset_workload
from repro.workflow.presets import build_preset

VARS = sorted(ALL_VARS)
DEVICES = ["dev_a", "dev_b", "dev_c"]
#: Mapped keys, compound door keys and keys no variable maps.
STATUS_KEYS = sorted(_STATUS_KEY_TO_VAR) + [
    "door:front", "door:back", "position", "temperature",
]
#: Device names, compound door keys, and a key no report can reach.
STATE_KEYS = DEVICES + ["dev_a:front", "dev_b:back", "vial_1"]

#: Values ``float()`` accepts, floats (and float subclasses) among them.
numbers = st.one_of(
    st.sampled_from([0.0, 1, 1.0, True, False, 0, 2.5]),
    st.builds(lambda: -0.0),
    st.builds(lambda: float("nan")),
    st.builds(lambda: 1.0 + 5e-7),  # inside FLOAT_TOLERANCE of 1.0
    st.builds(np.float64, st.sampled_from([-0.0, 0.0, 1.0, float("nan")])),
    st.builds(np.float32, st.sampled_from([-0.0, 1.0, float("nan")])),
    st.builds(np.bool_, st.booleans()),
    st.floats(allow_nan=True, allow_infinity=True),
)
#: Values that are not floats: compared with ``!=``.
others = st.one_of(
    st.sampled_from([1, True, False, 0, None, "open", "closed", "N", "on"]),
    st.builds(np.float32, st.sampled_from([-0.0, 1.0, float("nan")])),
    st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.sampled_from([0, 1])),
    st.builds(lambda: (-0.0,)),
    st.builds(lambda: (0.0,)),
)
values = st.one_of(numbers, others)
states = st.lists(
    st.tuples(st.sampled_from(VARS), st.sampled_from(STATE_KEYS), values),
    max_size=16,
)
reports = st.lists(
    st.tuples(
        st.sampled_from(DEVICES),
        st.lists(st.tuples(st.sampled_from(STATUS_KEYS), values), max_size=8).map(dict),
    ),
    unique_by=lambda device: device[0],
    max_size=len(DEVICES),
)


class _Reporter:
    """A device that answers every status request with one fixed report."""

    def __init__(self, name, report, latency, polls):
        self.connection = SimpleNamespace(status_latency=latency)
        self._name, self._report, self._polls = name, report, polls

    def status(self):
        self._polls.append(self._name)
        return dict(self._report)


def _written(pairs):
    state = LabState()
    for var, key, value in pairs:
        state.set(var, key, value)
    return state


def _rewritten(state):
    """A fresh snapshot with *state*'s entries written through ``set``."""
    return _written(
        (var, key, value) for var in VARS for key, value in state.entries(var).items()
    )


def _observed(device_reports):
    """The observed snapshot FetchState built before the one pass."""
    observed = LabState()
    for name, report in device_reports:
        for status_key, value in report.items():
            if status_key.startswith("door:"):
                observed.set("door_status", f"{name}:{status_key[len('door:'):]}", value)
            elif status_key in _STATUS_KEY_TO_VAR:
                observed.set(_STATUS_KEY_TO_VAR[status_key], name, value)
    return observed


def _monitor(device_reports):
    """A monitor over reporting devices, in report order; the list of
    polled device names."""
    polls = []
    devices = {
        name: _Reporter(name, report, 0.01 * (i + 1), polls)
        for i, (name, report) in enumerate(device_reports)
    }
    return Rabit(RabitLabModel(), devices), polls


def _shape(state):
    """Entries with their exact types and reprs (zero signs, NaN)."""
    return {
        var: {key: (type(v), repr(v)) for key, v in state.entries(var).items()}
        for var in VARS
    }


def _assert_same_state(state, reference):
    """The same entries, as the same objects, and the same token."""
    assert _shape(state) == _shape(reference)
    for var in VARS:
        mine, theirs = state.entries(var), reference.entries(var)
        assert mine.keys() == theirs.keys()
        for key in mine:
            assert mine[key] is theirs[key], (var, key)
    assert state.fingerprint_token() == reference.fingerprint_token()
    assert state.fingerprint_token() == _rewritten(state).fingerprint_token()
    assert state.fingerprint() == reference.fingerprint()


def _assert_same_mismatch(first, diffs):
    """*first* is ``diffs[0]``: the same entry, the same value objects."""
    if not diffs:
        assert first is None
        return
    assert first is not None and len(first) == 4
    assert first[:2] == diffs[0][:2]
    assert first[2] is diffs[0][2] and first[3] is diffs[0][3], (first, diffs[0])


class TestOnePassEqualsCompareThenMerge:
    @given(before=states, device_reports=reports, data=st.data())
    @settings(max_examples=500, deadline=None)
    def test_pass_equals_diff_then_merge(self, before, device_reports, data):
        expected = _written(before)
        observed = _observed(device_reports)
        # Most reported entries also get an expected value that the
        # comparison accepts, so most cases compare several entries.
        for var in VARS:
            for key, value in observed.entries(var).items():
                if data.draw(st.integers(0, 3)):
                    like = numbers if isinstance(value, float) else others
                    expected.set(var, key, data.draw(like))
        shape_before = _shape(expected)
        merged = expected.merge_observed(observed)
        rabit, polls = _monitor(device_reports)
        # A float compared with a value float() refuses, or with a NaN,
        # is a mismatch: both the oracle and the pass report it.
        diffs = expected.diff_observable(observed)

        state = expected.copy()
        first = rabit._fetch_and_adopt(state)

        _assert_same_state(state, merged)
        _assert_same_mismatch(first, diffs)
        # Entry by entry, the verdict is diff_observable's on that entry.
        for var in VARS:
            for key, value in observed.entries(var).items():
                alone = LabState()
                alone.set(var, key, value)
                verdict = expected.copy().adopt_observed(var, key, value)
                _assert_same_mismatch(verdict, expected.diff_observable(alone))
        assert _shape(expected) == shape_before
        # One status request per device, in device order, each charged.
        assert polls == [name for name, _ in device_reports]
        assert rabit.clock.spent("rabit_fetch_state") == pytest.approx(
            sum(0.01 * (i + 1) for i in range(len(device_reports)))
        )

        # Initialization runs the same pass and replaces the state.
        rabit.state = seeded = expected.copy()
        rabit.initialize()
        assert rabit.state is not seeded
        _assert_same_state(rabit.state, merged)

    def test_the_smallest_mismatch_is_reported_not_the_first_seen(self):
        expected = _written([
            ("door_status", "dev_b", "open"),
            ("device_active", "dev_b", True),
            ("action_value", "dev_a", 3.0),
        ])
        device_reports = [
            ("dev_b", {"door": "closed", "active": False}),
            ("dev_a", {"action_value": 4.0}),
        ]
        first = _monitor(device_reports)[0]._fetch_and_adopt(expected)
        assert first == ("action_value", "dev_a", 3.0, 4.0)

    @pytest.mark.parametrize(
        "expected_value, reported",
        [(0.0, None), (0.0, "n/a"), (0.0, (0.0,)), (0.0, float("nan")),
         (float("nan"), 0.0), (float("nan"), float("nan")), (None, 0.0),
         ("open", 1.0), pytest.param(0.0, 10**400, id="0.0-int-past-float-range")],
        ids=repr,
    )
    def test_wrong_typed_and_nan_reports_are_mismatches(self, expected_value, reported):
        expected = _written([("dispensed_mg", "dev_a", expected_value)])
        observed = _written([("dispensed_mg", "dev_a", reported)])
        diffs = expected.diff_observable(observed)
        assert diffs == [("dispensed_mg", "dev_a", expected_value, reported)]
        first = _monitor([("dev_a", {"dispensed_mg": reported})])[0]._fetch_and_adopt(expected)
        _assert_same_mismatch(first, diffs)
        assert expected.get("dispensed_mg", "dev_a") is reported

    def test_volatile_and_tolerated_differences_are_adopted_not_reported(self):
        expected = _written([
            ("zone_occupied", "dev_a", False),
            ("action_value", "dev_a", 1.0),
            ("dispensed_mg", "dev_a", 0.0),
        ])
        device_reports = [
            ("dev_a", {"occupied": True, "action_value": 1.0 + 5e-7, "dispensed_mg": -0.0}),
        ]
        first = _monitor(device_reports)[0]._fetch_and_adopt(expected)
        assert first is None
        assert expected.get("zone_occupied", "dev_a") is True
        assert expected.get("action_value", "dev_a") == 1.0 + 5e-7
        assert repr(expected.get("dispensed_mg", "dev_a")) == "-0.0"
        assert expected.fingerprint_token() == _rewritten(expected).fingerprint_token()


def _doors(device):
    """``(door name, door)`` of every door of *device* (``None`` names a
    single door)."""
    doors = getattr(device, "doors", None)
    if doors is not None:
        return list(doors.items())
    door = getattr(device, "door", None)
    return [] if door is None else [(None, door)]


#: The "Device malfunction!" messages a jammed door raised before the
#: pass, with the same toggles in the same order.
JAMMED_DOOR_ALERTS = {
    "hein": [
        "after open_door: expected door_status[dosing_device] = 'open' but device reports 'closed'",
        "after close_door: expected door_status[centrifuge] = 'closed' but device reports 'open'",
    ],
    "testbed": [
        "after open_door: expected door_status[dosing_device] = 'open' but device reports 'closed'",
        "after close_door: expected door_status[centrifuge] = 'closed' but device reports 'open'",
    ],
    "two_door": [
        "after open_door: expected door_status[mdoser:front] = 'open' but device reports 'closed'",
        "after open_door: expected door_status[mdoser:back] = 'open' but device reports 'closed'",
    ],
}


class TestOnePassOnDecks:
    @pytest.mark.parametrize("deck_name", sorted(JAMMED_DOOR_ALERTS))
    def test_jammed_door_raises_the_same_alert(self, deck_name):
        deck = build_deck(deck_name)
        rabit, proxies, _ = make_rabit(deck, options=default_serve_options())
        messages = []
        for name, proxy in proxies.items():
            for door_name, door in _doors(deck.devices[name]):
                toggle = proxy.close_door if door.is_open else proxy.open_door
                door.jam()
                before = rabit.alert_count
                toggle() if door_name is None else toggle(door_name)
                door.unjam()
                assert rabit.alert_count == before + 1
                alert = rabit.last_alert()
                assert alert.kind is AlertKind.DEVICE_MALFUNCTION
                messages.append(alert.message)
                # The jammed door's report is adopted: no second alert.
                assert rabit._fetch_and_adopt(rabit.state.copy()) is None
                state = rabit.state
                assert state.fingerprint_token() == _rewritten(state).fingerprint_token()
        assert messages == JAMMED_DOOR_ALERTS[deck_name]

    @pytest.mark.parametrize("reported", [None, "n/a", float("nan")], ids=repr)
    def test_wrong_typed_or_nan_report_is_a_device_malfunction(self, reported):
        deck = build_deck("hein")
        rabit, proxies, _ = make_rabit(deck, options=default_serve_options())
        doser = deck.devices["dosing_device"]
        honest = doser.status
        doser.status = lambda: {**honest(), "dispensed_mg": reported}
        before = rabit.alert_count
        proxies["dosing_device"].open_door()
        assert rabit.alert_count == before + 1
        alert = rabit.last_alert()
        assert alert.kind is AlertKind.DEVICE_MALFUNCTION
        assert alert.message == (
            "after open_door: expected dispensed_mg[dosing_device] = 0.0 "
            f"but device reports {reported!r}"
        )

    @pytest.mark.parametrize(
        "workload, deck_name",
        [("solubility", "hein"), ("testbed", "testbed"), ("multi_door", "two_door")],
    )
    def test_every_adopted_state_reports_the_set_token(self, workload, deck_name):
        assert build_preset(PRESET_WORKLOADS[workload][0]).deck == deck_name
        _outcome, records = run_preset_workload(workload, {})
        adopted = [r.state_after for r in records if r.state_after is not None]
        assert len(adopted) >= 10
        for state in adopted:
            written = _rewritten(state)
            assert state.fingerprint_token() == written.fingerprint_token()
            assert state.fingerprint() == written.fingerprint()
