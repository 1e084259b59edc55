"""FetchState writes once: merging skips only what writing would not change.

``Rabit._fetch_state_impl`` fills its observed snapshot with
``LabState.fill`` (no fingerprint-token upkeep), and
``LabState.merge_observed`` keeps a stored entry only when the observed
value is the same object, or an equal value of the same plain type.
These tests pin that the merged entries, value types, zero signs and
``fingerprint_token()`` are exactly what writing every observed entry
through ``set`` gives, and that no filled snapshot reports a token that
differs from the same entries written through ``set``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.state import ALL_VARS, OBSERVABLE_VARS, LabState
from repro.lab.decks import build_deck, make_rabit
from repro.serve.session import default_serve_options

VARS = sorted(ALL_VARS)
KEYS = ["dev_a", "dev_b", "dev_c"]

values = st.one_of(
    st.sampled_from([0.0, 1, 1.0, True, False, 0, None, "open", "closed", "N"]),
    st.builds(lambda: -0.0),
    st.builds(lambda: float("nan")),
    st.builds(np.float64, st.sampled_from([-0.0, 0.0, 1.0, float("nan")])),
    st.builds(np.float32, st.sampled_from([-0.0, 1.0])),
    st.builds(np.bool_, st.booleans()),
    st.builds(lambda: (-0.0,)),
    st.builds(lambda: (0.0,)),
    st.floats(allow_nan=True, allow_infinity=True),
)
entries = st.lists(
    st.tuples(st.sampled_from(VARS), st.sampled_from(KEYS), values), max_size=12
)


def _written(pairs):
    state = LabState()
    for var, key, value in pairs:
        state.set(var, key, value)
    return state


def _filled(pairs):
    state = LabState()
    for var, key, value in pairs:
        state.fill(var, key, value)
    return state


def _rewritten(state):
    """A fresh snapshot with *state*'s entries written through ``set``."""
    return _written(
        (var, key, value) for var in VARS for key, value in state.entries(var).items()
    )


def _merge_writing_everything(expected, observed):
    """The reference merge: write every observed entry through ``set``."""
    merged = expected.copy()
    for var in OBSERVABLE_VARS:
        for key, value in observed.entries(var).items():
            merged.set(var, key, value)
    return merged


def _shape(state):
    """Entries with their exact types and reprs (zero signs, NaN)."""
    return {
        var: {key: (type(v), repr(v)) for key, v in state.entries(var).items()}
        for var in VARS
    }


def _same_objects_or_equal(a, b):
    """Entry by entry: identical, or NaN in both with the same type."""
    for var in VARS:
        mine, theirs = a.entries(var), b.entries(var)
        assert mine.keys() == theirs.keys()
        for key in mine:
            x, y = mine[key], theirs[key]
            assert type(x) is type(y)
            if isinstance(x, float) and math.isnan(x):
                assert math.isnan(y)
            else:
                assert x == y and repr(x) == repr(y)


class TestMergeObserved:
    @given(before=entries, report=entries, filled=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_merge_equals_writing_every_entry(self, before, report, filled):
        expected = _written(before)
        observed = _filled(report) if filled else _written(report)
        merged = expected.merge_observed(observed)
        reference = _merge_writing_everything(expected, observed)

        assert _shape(merged) == _shape(reference)
        _same_objects_or_equal(merged, reference)
        assert merged.fingerprint_token() == reference.fingerprint_token()
        assert merged.fingerprint_token() == _rewritten(merged).fingerprint_token()
        # The expected snapshot itself is untouched.
        assert _shape(expected) == _shape(_written(before))

    def test_zero_signs_and_types_are_written(self):
        expected = _written([("action_value", "dev_a", 0.0), ("device_active", "dev_a", 1)])
        observed = _filled([("action_value", "dev_a", -0.0), ("device_active", "dev_a", True)])
        merged = expected.merge_observed(observed)
        assert math.copysign(1.0, merged.get("action_value", "dev_a")) == -1.0
        assert merged.get("device_active", "dev_a") is True

    def test_unchanged_plain_entries_keep_the_stored_value(self):
        door = "".join(["op", "en"])  # equal to "open", a distinct object
        expected = _written([("door_status", "dev_a", "open")])
        merged = expected.merge_observed(_filled([("door_status", "dev_a", door)]))
        assert merged.get("door_status", "dev_a") == "open"
        assert merged.fingerprint_token() == expected.fingerprint_token()


class TestFilledToken:
    @given(pairs=entries)
    @settings(max_examples=400, deadline=None)
    def test_filled_snapshot_token_equals_set(self, pairs):
        filled, written = _filled(pairs), _written(pairs)
        assert filled.fingerprint_token() == written.fingerprint_token()
        assert filled.fingerprint() == written.fingerprint()
        # Writing on top of a filled snapshot keeps the token honest.
        filled.set("gripper", "dev_a", "closed")
        written.set("gripper", "dev_a", "closed")
        assert filled.fingerprint_token() == written.fingerprint_token()
        assert filled.copy().fingerprint_token() == written.fingerprint_token()

    def test_fetch_state_snapshots_report_the_set_token(self):
        checked = 0
        for deck_name in ("hein", "testbed", "two_door"):
            deck = build_deck(deck_name)
            rabit, proxies, _ = make_rabit(deck, options=default_serve_options())
            snapshots = [rabit._fetch_state()]
            # Open every single-door device in turn (a multi-door
            # device's report already carries its "door:<name>" keys).
            for name, proxy in proxies.items():
                if getattr(deck.devices[name], "door", None) is not None:
                    proxy.open_door()
                    assert rabit.state.fingerprint_token() == _rewritten(
                        rabit.state
                    ).fingerprint_token()
                    snapshots.append(rabit._fetch_state())
            for observed in snapshots:
                written = _rewritten(observed)
                assert observed.fingerprint_token() == written.fingerprint_token()
                assert observed.fingerprint() == written.fingerprint()
                checked += 1
        assert checked >= 6
