"""Pins of the interceptor's resolver table: one ActionCall per call.

Every (device class, method) pair the interceptor resolves is called
here on a real deck device, with positional and keyword arguments where
the method takes either, and the resolved :class:`ActionCall` must equal
the one recorded in ``fixtures/resolver_pins.json``.  Every other public
method of each deck's device classes must stay unresolved (the proxy
passes it through untraced), which pins the fall-through along the class
hierarchy: a ``Decapper`` resolves the ``ActionDeviceBase`` commands,
and a ``SolidDosingDevice`` resolves no ``start_action``.

Regenerate the fixture only for a deliberate change of what a command
resolves to: ``PYTHONPATH=src python tests/test_resolver_table.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.core.interceptor import resolve_action
from repro.lab.decks import build_deck

PINS = Path(__file__).parent / "fixtures" / "resolver_pins.json"

#: (deck, device, method, args, kwargs); a ``"@location"`` deck suffix
#: first drives the deck's arm to that location (a gripper command is
#: attributed to the location the arm hovers over).
CASES: List[Tuple[str, str, str, tuple, dict]] = [
    ("hein", "ur3e", "move_to_location", ("grid_a1_safe",), {}),
    ("hein", "ur3e", "move_to_location", (), {"ref": "dosing_interior"}),
    ("hein", "ur3e", "move_to_location", ([0.3, 0.1, 0.2],), {}),
    ("hein", "ur3e", "move_pose", ([0.3, 0.1, 0.2],), {}),
    ("hein", "ur3e", "go_to_home_pose", (), {}),
    ("hein", "ur3e", "go_to_sleep_pose", (), {}),
    ("hein", "ur3e", "pick_up_vial", ("grid_a1",), {}),
    ("hein", "ur3e", "pick_up_vial", (), {"ref": "hotplate_top"}),
    ("hein", "ur3e", "place_vial", ("hotplate_top",), {}),
    ("hein", "ur3e", "place_vial", (), {"ref": "grid_a1"}),
    ("hein", "ur3e", "open_gripper", (), {}),
    ("hein", "ur3e", "close_gripper", (), {}),
    ("hein@grid_a1", "ur3e", "open_gripper", (), {}),
    ("hein@grid_a1", "ur3e", "close_gripper", (), {}),
    ("hein", "dosing_device", "set_door", ("door", "open"), {}),
    ("hein", "dosing_device", "set_door", ("door", "closed"), {}),
    ("hein", "dosing_device", "set_door", ("door",), {"state": "open"}),
    ("hein", "dosing_device", "open_door", (), {}),
    ("hein", "dosing_device", "close_door", (), {}),
    ("hein", "dosing_device", "run_action", (3.0, 5.0), {}),
    ("hein", "dosing_device", "run_action", (), {"delay": 3.0, "quantity": 5.0}),
    ("hein", "dosing_device", "dose_solid", (4.0,), {}),
    ("hein", "dosing_device", "dose_solid", (), {"amount_mg": 2.5}),
    ("hein", "dosing_device", "stop_action", (), {}),
    ("hein", "syringe_pump", "dose_initial_solvent", (4.0,), {}),
    ("hein", "syringe_pump", "dose_solvent", (), {"volume_ml": 2.0}),
    ("hein", "syringe_pump", "stop", (), {}),
    ("hein", "hotplate", "set_door", ("lid", "open"), {}),
    ("hein", "hotplate", "open_door", (), {}),
    ("hein", "hotplate", "close_door", (), {}),
    ("hein", "hotplate", "start_action", (60.0,), {}),
    ("hein", "hotplate", "stir_solution", (60.0,), {}),
    ("hein", "hotplate", "stir_solution", (), {"temperature": 40.0}),
    ("hein", "hotplate", "set_action_value", (45.0,), {}),
    ("hein", "hotplate", "stop_action", (), {}),
    ("hein", "centrifuge", "set_door", ("lid",), {"state": "closed"}),
    ("hein", "centrifuge", "start_action", (), {"value": 3000.0}),
    ("hein", "centrifuge", "rotate_rotor", ("cw",), {}),
    ("hein", "centrifuge", "rotate_rotor", (), {"direction": "ccw"}),
    ("hein", "centrifuge", "stop_action", (), {}),
    ("hein", "thermoshaker", "shake", (800.0,), {}),
    ("hein", "thermoshaker", "shake", (), {"speed_rpm": 1200.0}),
    ("hein", "thermoshaker", "set_action_value", (), {"value": 600.0}),
    ("hein", "vial_1", "cap_vial", (), {}),
    ("hein", "vial_1", "decap_vial", (), {}),
    ("two_door", "mdoser", "set_door", ("front", "open"), {}),
    ("two_door", "mdoser", "set_door", (), {"door_name": "back", "state": "closed"}),
    ("two_door", "mdoser", "open_door", ("front",), {}),
    ("two_door", "mdoser", "close_door", (), {"door_name": "back"}),
    ("two_door", "mdoser", "dose_solid", (3.0,), {}),
    ("two_door", "mdoser", "dose_solid", (), {"amount_mg": 2.0}),
    ("two_door", "mdoser", "stop_action", (), {}),
    ("two_door", "viperx", "move_to_location", ("front_approach",), {}),
    ("berlinguette", "decapper", "decap", (), {}),
    ("berlinguette", "decapper", "cap", (), {}),
    ("berlinguette", "decapper", "start_action", (1.0,), {}),
    ("berlinguette", "decapper", "open_door", (), {}),
    ("berlinguette", "spin_coater", "start_action", (2000.0,), {}),
    ("berlinguette", "nozzle", "start_action", (), {"value": 30.0}),
    ("berlinguette", "xrf", "set_action_value", (1.5,), {}),
    ("berlinguette", "xrf", "stop_action", (), {}),
    ("berlinguette", "syringe_pump", "dose_solvent", (3.0,), {}),
    ("berlinguette", "ur5e", "go_to_home_pose", (), {}),
    ("testbed", "viperx", "move_to_location", ("grid_nw_viperx_safe",), {}),
    ("testbed", "ned2", "go_to_sleep_pose", (), {}),
    ("testbed", "dosing_device", "set_door", ("door", "open"), {}),
]

#: One device of each deck class whose unresolved methods are pinned.
CLASS_SAMPLES: Tuple[Tuple[str, str], ...] = (
    ("hein", "ur3e"),
    ("hein", "dosing_device"),
    ("hein", "syringe_pump"),
    ("hein", "hotplate"),
    ("hein", "centrifuge"),
    ("hein", "thermoshaker"),
    ("hein", "vial_1"),
    ("two_door", "mdoser"),
    ("berlinguette", "decapper"),
    ("berlinguette", "spin_coater"),
    ("berlinguette", "nozzle"),
    ("berlinguette", "xrf"),
)


def _device(deck_ref: str, name: str) -> Any:
    deck_name, _, location = deck_ref.partition("@")
    deck = build_deck(deck_name)
    device = deck.devices[name]
    if location:
        device.move_to_location(location)
    return device


def _case_id(case: Tuple[str, str, str, tuple, dict]) -> str:
    deck, device, method, args, kwargs = case
    return f"{deck}:{device}.{method}{json.dumps([list(args), kwargs])}"


def _as_json(call: Any) -> Optional[Dict[str, Any]]:
    """The ActionCall as the JSON the fixture stores (None stays None)."""
    if call is None:
        return None
    fields = dict(vars(call))
    fields["label"] = call.label.value
    return json.loads(json.dumps(fields))


def _public_methods(device: Any) -> List[str]:
    return sorted(
        name for name in dir(type(device))
        if not name.startswith("_") and callable(getattr(device, name, None))
    )


def _resolves(device: Any, method: str) -> bool:
    """Whether *method* has a resolver (one that may refuse no arguments)."""
    try:
        return resolve_action(device, method) is not None
    except (KeyError, IndexError, TypeError, ValueError):
        return True


def _unresolved(deck: str, name: str) -> List[str]:
    device = _device(deck, name)
    return [m for m in _public_methods(device) if not _resolves(device, m)]


def _record() -> Dict[str, Any]:
    """What the current resolver answers (the fixture's content)."""
    return {
        "calls": {
            _case_id(case): _as_json(
                resolve_action(_device(case[0], case[1]), case[2], case[3], case[4])
            )
            for case in CASES
        },
        "unresolved": {
            f"{deck}:{name}": _unresolved(deck, name) for deck, name in CLASS_SAMPLES
        },
    }


@pytest.fixture(scope="module")
def pins() -> Dict[str, Any]:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_resolved_call_matches_pin(case, pins):
    deck, name, method, args, kwargs = case
    call = resolve_action(_device(deck, name), method, args, kwargs)
    assert call is not None
    assert _as_json(call) == pins["calls"][_case_id(case)]


@pytest.mark.parametrize("sample", CLASS_SAMPLES, ids=lambda s: f"{s[0]}:{s[1]}")
def test_other_methods_stay_unresolved(sample, pins):
    deck, name = sample
    assert _unresolved(deck, name) == pins["unresolved"][f"{deck}:{name}"]


def test_every_resolvable_method_is_pinned(pins):
    """Each sampled class's resolvable methods are all exercised by a case."""
    covered = {case[2] for case in CASES}
    for deck, name in CLASS_SAMPLES:
        device = _device(deck, name)
        unresolved = set(pins["unresolved"][f"{deck}:{name}"])
        resolvable = set(_public_methods(device)) - unresolved
        assert resolvable <= covered, (name, sorted(resolvable - covered))


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    PINS.write_text(json.dumps(_record(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
