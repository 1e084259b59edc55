"""Seeded command traffic and its reference verdicts.

All traffic is built here, from the seed and the committed base scripts
in ``data/base_scripts.json``; the program under test only receives the
resulting commands.  A *script* is the command sequence one session (one
fresh deck) receives, ending at its first blocked command.  Its expected
verdicts come from the reference monitor: the same options with
interpreted rule dispatch and the rule-verdict cache off.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.core import interceptor
from repro.core.monitor import RabitOptions
from repro.serve import session as serve_session
from repro.serve.session import default_serve_options

DATA = Path(__file__).resolve().parent / "data" / "base_scripts.json"

#: The deck every workload runs on: the hein config model and verdicts,
#: without ground-truth world geometry, so time goes to guard work.
DECK = "hein_lean"

Command = Tuple[str, str, Tuple[Any, ...]]
#: ``None`` when the command passed, else ``(alert kind, rule id, message)``.
Verdict = Optional[Tuple[str, Optional[str], str]]

#: Share of mix scripts that get one mutation (exactly, per pool).
MUTATION_SHARE = 0.25
#: Distinct scripts in one mix run's pool (cycled through while timing).
MIX_POOL = 24
#: Long-lived decks in one repeat_bare run's pool, and the state-cycling
#: commands each receives after its workflow prefix.
BARE_POOL = 12
BARE_CYCLE_COMMANDS = 200
#: Set-points the state cycles use; fixed, so a cycle returns the state
#: it started from and (command, state) pairs recur.
ACTION_VALUES = {"hotplate": 60.0, "thermoshaker": 800.0}
CENTRIFUGE_RPM = 3000.0


@dataclass(frozen=True)
class Script:
    """One session's commands and their reference verdicts."""

    origin: str
    commands: Tuple[Command, ...]
    verdicts: Tuple[Verdict, ...]


@dataclass(frozen=True)
class Base:
    """The committed base scripts and the deck's location names."""

    scripts: Tuple[Tuple[str, Tuple[Command, ...]], ...]
    locations: Tuple[str, ...]
    free_locations: Tuple[str, ...]


def load_base(path: Path = DATA) -> Base:
    doc = json.loads(path.read_text())
    scripts = tuple(
        (
            f"{entry['preset']}{json.dumps(entry['params'], sort_keys=True)}",
            tuple((d, m, tuple(a)) for d, m, a in entry["commands"]),
        )
        for entry in doc["scripts"]
    )
    return Base(scripts, tuple(doc["locations"]), tuple(doc["free_locations"]))


def mix_options() -> RabitOptions:
    """mix_* profile: modified RABIT, headless Extended Simulator."""
    return default_serve_options()


def bare_options() -> RabitOptions:
    """repeat_bare profile: the paper's base RABIT, no simulator."""
    return RabitOptions.modified(preemptive_stop=False)


def reference_options(options: RabitOptions) -> RabitOptions:
    return replace(options, compiled_dispatch=False, rule_cache_size=0)


def verdict_of(alert: Any) -> Verdict:
    if alert is None:
        return None
    return (alert.kind.value, alert.rule_id, alert.message)


def guard_command(deck: Any, rabit: Any, command: Command) -> Tuple[Any, Verdict, float, float]:
    """Guard one command the way ``DeviceProxy`` does.

    Returns ``(call, verdict, guard_s, execute_s)``: the resolved call,
    the verdict, the wall time of the ``Rabit.guard`` call, and the wall
    time of the device execution inside it.  Module attributes are looked
    up at call time so traced runs see the wrapped functions.
    """
    device_name, method, args = command
    device = deck.devices[device_name]
    attr = getattr(device, method)
    call = interceptor.resolve_action(device, method, args, {})
    if call is None:
        raise ValueError(f"{device_name}.{method} is not a guarded command")
    rabit.clock.advance(
        device.connection.command_latency
        + interceptor.BASELINE_DURATION.get(call.label, 1.0),
        "experiment",
    )
    spent = 0.0

    def execute() -> Any:
        nonlocal spent
        started = time.perf_counter()
        try:
            return attr(*args)
        finally:
            spent = time.perf_counter() - started

    before = rabit.alert_count
    started = time.perf_counter()
    rabit.guard(call, execute)
    guard_s = time.perf_counter() - started
    alert = rabit.last_alert() if rabit.alert_count > before else None
    return call, verdict_of(alert), guard_s, spent


def reference_run(
    commands: Sequence[Command], options: RabitOptions
) -> Tuple[Tuple[Command, ...], Tuple[Verdict, ...]]:
    """Commands up to and including the first blocked one, with verdicts.

    Raises whatever the deck raises; callers drop such scripts.
    """
    deck, rabit = serve_session.build_guarded_deck(
        DECK, {}, None, reference_options(options)
    )
    kept: List[Command] = []
    verdicts: List[Verdict] = []
    for command in commands:
        _call, verdict, _g, _e = guard_command(deck, rabit, command)
        kept.append(command)
        verdicts.append(verdict)
        if verdict is not None:
            break
    return tuple(kept), tuple(verdicts)


# -- mix traffic --------------------------------------------------------------


def mutate(rng: random.Random, commands: Sequence[Command], base: Base) -> Tuple[str, List[Command]]:
    """Drop, swap or re-target one command; ``(description, commands)``."""
    out = list(commands)
    op = rng.choice(("drop", "swap", "retarget"))
    if op == "drop":
        i = rng.randrange(len(out))
        del out[i]
    elif op == "swap":
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    else:
        targeted = [i for i, (_d, _m, args) in enumerate(out) if args and isinstance(args[0], str)
                    and args[0] in base.locations]
        i = rng.choice(targeted)
        device, method, args = out[i]
        others = [loc for loc in base.locations if loc != args[0]]
        out[i] = (device, method, (rng.choice(others),) + tuple(args[1:]))
    return f"{op}@{i}", out


def mix_traffic(seed: int, base: Base, count: int = MIX_POOL) -> List[Script]:
    """Every base script equally often, in seeded order, a quarter mutated.

    Drawing each base script the same number of times, and mutating the
    same number of scripts, keeps the mix of commands, and so the work
    per command, alike across seeds.  A mutant whose reference run raises
    (a device error rather than a finished or blocked script) is dropped
    and another mutation drawn.
    """
    rng = random.Random(f"guardbench-mix-{seed}")
    options = mix_options()
    drawn = list(base.scripts) * -(-count // len(base.scripts))
    rng.shuffle(drawn)
    mutated = set(rng.sample(range(count), round(count * MUTATION_SHARE)))
    pool: List[Script] = []
    for i, (origin, commands) in enumerate(drawn[:count]):
        while True:
            label, variant = origin, commands
            if i in mutated:
                change, variant = mutate(rng, commands, base)
                label = f"{origin} {change}"
            try:
                kept, verdicts = reference_run(variant, options)
            except Exception:  # noqa: BLE001 - any device error disqualifies the mutant
                continue
            pool.append(Script(label, kept, verdicts))
            break
    return pool


# -- repeat_bare traffic ------------------------------------------------------


def _cycle_units(
    base: Base, door_open: dict, startable: dict
) -> Tuple[List[List[Command]], List[List[Command]]]:
    """Arm moves, and device command groups that each leave device state
    as they found it.

    *startable* names the action devices that hold a container and are
    idle, the only ones a start/stop cycle is valid on."""
    arm: List[List[Command]] = [[("ur3e", "go_to_home_pose", ())]]
    arm += [[("ur3e", "move_to_location", (loc,))] for loc in base.free_locations]
    units: List[List[Command]] = []
    for device in ("dosing_device", "centrifuge"):
        first, second = ("close_door", "open_door") if door_open[device] else ("open_door", "close_door")
        units.append([(device, first, ()), (device, second, ())])
    starts = {"hotplate": "stir_solution", "thermoshaker": "shake"}
    for device, method in starts.items():
        if startable[device]:
            units.append([(device, method, (ACTION_VALUES[device],)), (device, "stop_action", ())])
    if startable["centrifuge"]:
        spin = [("centrifuge", "start_action", (CENTRIFUGE_RPM,)), ("centrifuge", "stop_action", ())]
        if door_open["centrifuge"]:
            spin = [("centrifuge", "close_door", ())] + spin + [("centrifuge", "open_door", ())]
        units.append(spin)
    return arm, units


def _safe_cuts(commands: Sequence[Command], base: Base) -> List[int]:
    """Prefix lengths after which the arm rests at a free location."""
    return [
        i + 1
        for i, (device, method, args) in enumerate(commands)
        if device == "ur3e"
        and (method == "go_to_home_pose" or (method == "move_to_location" and args[0] in base.free_locations))
    ]


def bare_traffic(
    seed: int, base: Base, count: int = BARE_POOL, cycle_commands: int = BARE_CYCLE_COMMANDS
) -> List[Script]:
    """Long-lived decks: a workflow prefix, then seeded state cycles.

    Every base script is used equally often, as for the mix traffic.
    Each deck's script is alert-free on the reference; a draw that is not
    is discarded and another prefix drawn.
    """
    rng = random.Random(f"guardbench-bare-{seed}")
    options = bare_options()
    drawn = list(base.scripts) * -(-count // len(base.scripts))
    rng.shuffle(drawn)
    pool: List[Script] = []
    for origin, commands in drawn[:count]:
        for _attempt in range(20):
            cut = rng.choice(_safe_cuts(commands, base))
            prefix = list(commands[:cut])
            deck, rabit = serve_session.build_guarded_deck(DECK, {}, None, reference_options(options))
            try:
                if not _alert_free(deck, rabit, prefix):
                    continue
                door_open = {
                    d: rabit.state.get("door_status", d) == "open" for d in ("dosing_device", "centrifuge")
                }
                holding = {
                    rabit.model.interior_owner(at) for at in rabit.state.entries("container_at").values()
                }
                startable = {
                    d: d in holding and not rabit.state.get("device_active", d)
                    for d in ("hotplate", "thermoshaker", "centrifuge")
                }
                arm, units = _cycle_units(base, door_open, startable)
                # One arm move, then one device cycle: robot moves, whose
                # execution dominates their latency, stay about a third
                # of the commands, so the median command is a device one.
                cycled: List[Command] = []
                while len(cycled) < cycle_commands:
                    cycled.extend(rng.choice(arm) + rng.choice(units))
                if not _alert_free(deck, rabit, cycled):
                    continue
            except Exception:  # noqa: BLE001 - a device error disqualifies the draw
                continue
            script = tuple(prefix + cycled)
            pool.append(Script(f"{origin}[:{cut}] + {len(cycled)} cycled", script, (None,) * len(script)))
            break
        else:
            raise RuntimeError(f"could not draw alert-free repeat_bare traffic from {origin}")
    return pool


def _alert_free(deck: Any, rabit: Any, commands: Sequence[Command]) -> bool:
    """Guard *commands* in order; False at the first alert."""
    return all(guard_command(deck, rabit, command)[1] is None for command in commands)


def warmup_pool(base: Base) -> List[Script]:
    """Fixed, seed-independent warm-up: the first script of each preset.

    Base scripts are alert-free, so their verdicts need no reference run."""
    seen = {}
    for origin, commands in base.scripts:
        seen.setdefault(origin.split("{")[0], commands)
    return [Script("warm-up", commands, (None,) * len(commands)) for commands in seen.values()]
