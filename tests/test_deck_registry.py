"""The one deck registry and the one RABIT wiring.

Every registered deck builds and wires, with and without the Extended
Simulator, and the simulator covers every arm on the deck.  Deck names
and parameters fail closed the same way through every caller: the
workflow context, the guard service's ``open``, ``workflow run --spec``
and ``render --lab``.
"""

import asyncio
import json
import os
import tempfile

import pytest

from repro.cli import main
from repro.core.interceptor import resolve_action
from repro.core.monitor import RabitOptions
from repro.devices.robot import RobotArmDevice
from repro.lab.decks import DECKS, build_deck, make_rabit
from repro.serve.client import ServeClient, ServeError
from repro.serve.server import GuardServer
from repro.simulator.extended import ExtendedSimulator
from repro.workflow import (
    build_context,
    build_preset,
    journal_digest,
    run_journal,
    run_preset,
)


@pytest.mark.parametrize("use_es", [False, True], ids=["plain", "es"])
@pytest.mark.parametrize("name", list(DECKS))
def test_every_deck_builds_and_wires(name, use_es):
    deck = build_deck(name)
    options = RabitOptions.modified(use_extended_simulator=use_es, bypass_gui=True)
    rabit, proxies, trace = make_rabit(deck, options)

    assert set(proxies) == set(deck.devices) and trace == []
    for vial_name, vial in deck.vials.items():
        assert rabit.state.get("container_solid", vial_name) == vial.contents.solid_mg
    arms = [n for n, d in deck.devices.items() if isinstance(d, RobotArmDevice)]
    assert arms, f"deck {name!r} has no robot arm"
    if not use_es:
        assert rabit.trajectory_checker is None
        return
    checker = rabit.trajectory_checker
    assert isinstance(checker, ExtendedSimulator)
    for arm in arms:
        # The simulator plans a sweep for every arm, so none is unguarded.
        home = resolve_action(deck.devices[arm], "go_to_home_pose")
        job = checker.prepare_sweep(home, rabit.state, rabit.model, True)
        assert job is not None, f"{name}: the simulator does not sweep {arm!r}"


def _digest(options):
    _dag, ctx, result = run_preset("two_door", options=options)
    assert result.completed and result.alert is None
    journal = run_journal(
        ctx.trace, result.executed_nodes, result.completed,
        result.alert, result.device_error, result.recovered,
    )
    return len(ctx.trace), journal_digest(journal), ctx.rabit


def test_two_door_runs_clean_under_the_simulator_over_both_arms():
    commands, plain, _ = _digest(RabitOptions.modified())
    es_commands, swept, rabit = _digest(
        RabitOptions.modified(use_extended_simulator=True, bypass_gui=True)
    )
    assert isinstance(rabit.trajectory_checker, ExtendedSimulator)
    assert (es_commands, swept) == (commands, plain) == (14, plain)


# -- failing closed, the same way everywhere ---------------------------------


def _serve_open(**open_kwargs):
    """Open with *open_kwargs*, which must be refused, then open a good
    session on the same connection; ``(error, session id, rejections)``."""

    async def main_():
        server = GuardServer()
        path = os.path.join(tempfile.mkdtemp(prefix="rabit-deck-"), "g.sock")
        await server.start_unix(path)
        try:
            client = await ServeClient.open_unix(path)
            try:
                with pytest.raises(ServeError) as refused:
                    await client.open_session(**open_kwargs)
                session = await client.open_session(deck="hein_lean")
                return str(refused.value), session, server.stats["sessions_rejected"]
            finally:
                await client.close()
        finally:
            await server.stop()

    return asyncio.run(main_())


def test_unknown_deck_gives_one_error_through_every_caller(capsys):
    with pytest.raises(ValueError) as built:
        build_context("nope")
    message = str(built.value)
    assert message.startswith("unknown deck 'nope'; known: ")
    assert all(name in message for name in DECKS)

    served, session, rejected = _serve_open(deck="nope")
    assert served == message and session >= 1 and rejected == 1

    assert main(["render", "--lab", "nope"]) == 2
    assert capsys.readouterr().err.strip() == f"error: {message}"


def test_unknown_deck_parameter_is_refused_not_dropped(tmp_path, capsys):
    params = {"vial_names": ["a", "b", "c"], "vial_count": 3}
    with pytest.raises(ValueError, match=r"unknown deck parameter\(s\) \['vial_count'\]"):
        build_deck("hein", params)
    # The accepted key alone is honoured, not replaced by a default.
    assert sorted(build_deck("hein", {"vial_names": ["a", "b", "c"]}).vials) == ["a", "b", "c"]

    served, _session, _rejected = _serve_open(deck="hein", params=params)
    assert "unknown deck parameter(s) ['vial_count']" in served

    spec = build_preset("two_door").to_spec()
    spec["deck_params"] = {"doors": 3}
    path = tmp_path / "two_door.spec.json"
    path.write_text(json.dumps(spec))
    assert main(["workflow", "run", "--spec", str(path)]) == 2
    assert "unknown deck parameter(s) ['doors']" in capsys.readouterr().err


def test_service_builds_the_deck_its_params_name():
    async def main_():
        server = GuardServer()
        path = os.path.join(tempfile.mkdtemp(prefix="rabit-deck-"), "g.sock")
        await server.start_unix(path)
        try:
            client = await ServeClient.open_unix(path)
            await client.open_session(deck="hein", params={"vial_names": ["a", "b", "c"]})
            try:
                return await client.command("c", "decap_vial")
            finally:
                await client.close()
        finally:
            await server.stop()

    verdict = asyncio.run(main_())
    assert verdict["ok"] and verdict["traced"], verdict
