"""Serve-vs-in-process differential and the fail-closed contract.

Two halves of the same promise:

1. **Byte identity** — a single-session command script guarded through
   the service (async guard, cross-session sweep batcher) must produce a
   verdict journal *byte-identical* (canonical JSON) to the classic
   in-process :meth:`Rabit.guard` loop, including rule-verdict-cache
   dispositions.  The batcher is allowed to exist only because it is
   invisible to verdicts.

2. **Load never weakens the guard** — every command gets the full sweep
   whatever the load.  Sixty-four sessions moving at once onto a
   surface slab only the gripper tip strikes must all be blocked, as a
   lone session is.
"""

import asyncio
import os
import tempfile

from repro.core.interceptor import resolve_action
from repro.core.model import ObstacleModel
from repro.geometry.shapes import Cuboid
from repro.serve.batcher import SweepBatcher
from repro.serve.client import ServeClient
from repro.serve.journal import run_inprocess_journal
from repro.serve.server import GuardServer
from repro.serve.session import GuardSession
from repro.trace.canon import canonical_bytes

#: A script that exercises every journal field: clean motions, door
#: bookkeeping, a G1 alert, and enough repetition for a cache hit.
SCRIPT = [
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
    {"device": "dosing_device", "method": "open_door"},
    {"device": "ur3e", "method": "move_to_location", "args": ["dosing_interior"]},
    {"device": "ur3e", "method": "move_to_location", "args": ["grid_a1_safe"]},
    {"device": "dosing_device", "method": "close_door"},
    {"device": "ur3e", "method": "move_to_location", "args": ["dosing_interior"]},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
    {"device": "ur3e", "method": "go_to_home_pose"},
]


async def _service_journal(script):
    server = GuardServer()
    path = os.path.join(tempfile.mkdtemp(prefix="rabit-serve-diff-"), "g.sock")
    await server.start_unix(path)
    try:
        client = await ServeClient.open_unix(path)
        await client.open_session(deck="hein")
        for command in script:
            await client.command(
                command["device"], command["method"], *command.get("args", ())
            )
        journal = await client.journal()
        sweep_stats = dict(server.batcher.stats)
        await client.close()
        return journal, sweep_stats
    finally:
        await server.stop()


def test_service_journal_is_byte_identical_to_inprocess():
    service, sweeps = asyncio.run(_service_journal(SCRIPT))
    inprocess = run_inprocess_journal("hein", SCRIPT)

    assert canonical_bytes(service) == canonical_bytes(inprocess)

    # The equality above is only meaningful if the script exercised what
    # it claims to: batched sweeps, an alert, and a cache hit.
    assert sweeps["submitted"] >= 4, sweeps
    alerts = [e["alert"] for e in service if e["alert"] is not None]
    assert [a["rule_id"] for a in alerts] == ["G1"]
    assert any(e["rule_cache"] == "hit" for e in service)
    assert all("degraded" not in e for e in service)


# -- fail closed under load ---------------------------------------------------


def _add_tip_trap(session):
    """Add a slab the gripper tip strikes on the move to ``grid_a1_safe``.

    ``surface=True`` obstacles are probed against gripper/held tips
    only, so the tool point clears this slab and only the full sweep
    blocks the move.
    """
    rabit = session.rabit
    device = session.deck.devices["ur3e"]
    call = resolve_action(device, "move_to_location", ("grid_a1_safe",), {})
    job = rabit.trajectory_checker.prepare_sweep(call, rabit.state, rabit.model, True)
    assert job is not None

    mid = job.samples[len(job.samples) // 2]
    tip_z = mid[2] - job.robot_model.gripper_clearance
    rabit.model.add_obstacle(
        ObstacleModel(
            name="wet_tray",
            frames={
                job.frame: Cuboid(
                    (mid[0] - 0.05, mid[1] - 0.05, tip_z - 0.004),
                    (mid[0] + 0.05, mid[1] + 0.05, tip_z + 0.004),
                    name="wet_tray",
                )
            },
            surface=True,
        )
    )


def test_every_session_gets_the_full_sweep_under_load():
    sessions_count = 64

    async def scenario():
        batcher = SweepBatcher()
        batcher.start()
        try:
            sessions = [
                GuardSession(i, "hein", batcher=batcher)
                for i in range(sessions_count)
            ]
            for session in sessions:
                _add_tip_trap(session)
            responses = await asyncio.gather(
                *[
                    session.run_command("ur3e", "move_to_location", ("grid_a1_safe",))
                    for session in sessions
                ]
            )
            return responses, dict(batcher.stats)
        finally:
            await batcher.stop()

    responses, sweeps = asyncio.run(scenario())

    messages = [
        (response["alert"] or {}).get("message", "allowed") for response in responses
    ]
    blocked = [m for m in messages if "gripper would collide with 'wet_tray'" in m]
    assert len(blocked) == sessions_count, messages
    assert not any(response["ok"] for response in responses)
    # All 64 sweeps were queued together, so the load was real.
    assert sweeps["max_batch"] == sessions_count, sweeps


# -- sharded service ----------------------------------------------------------
#
# The strongest claim the shard layer makes: the router pipes session
# frames untouched into what is, per worker, exactly the single-process
# service — so a session's journal is byte-identical to the in-process
# reference REGARDLESS of worker count, routing key, or which shard the
# session landed on.


def _sharded_journals(script, workers, keys):
    from repro.serve.shard import ShardConfig, ShardService

    async def scenario():
        service = ShardService(ShardConfig(workers=workers))
        await service.start()
        try:
            journals = {}
            for key in keys:
                client = await ServeClient.open_tcp(
                    service.config.host, service.config.port
                )
                await client.open_session(deck="hein", key=key)
                for command in script:
                    await client.command(
                        command["device"],
                        command["method"],
                        *command.get("args", ()),
                    )
                journals[key] = await client.journal()
                await client.close()
            stats_client = await ServeClient.open_tcp(
                service.config.host, service.config.port
            )
            merged = (await stats_client.request({"op": "stats"}))["stats"]
            await stats_client.close()
            return journals, merged
        finally:
            await service.stop()

    return asyncio.run(scenario())


def _keys_covering_both_workers():
    """Session keys chosen (deterministically) to hit both of 2 shards."""
    from repro.serve.shard import shard_for

    keys, hit = [], set()
    i = 0
    while hit != {0, 1}:
        key = f"diff-sess-{i}"
        index = shard_for("default", key, 2)
        if index not in hit:
            hit.add(index)
            keys.append(key)
        i += 1
    return keys


def test_sharded_journals_byte_identical_across_worker_counts():
    reference = canonical_bytes(run_inprocess_journal("hein", SCRIPT))
    keys = _keys_covering_both_workers()

    for workers in (1, 2):
        journals, merged = _sharded_journals(SCRIPT, workers, keys)
        for key, journal in journals.items():
            assert canonical_bytes(journal) == reference, (workers, key)

        # The deterministic merge accounted for every command exactly
        # once, however the sessions were spread.
        assert merged["workers"] == workers
        assert merged["workers_alive"] == workers
        assert merged["totals"]["commands"] == len(SCRIPT) * len(keys)
        assert merged["totals"]["sessions_opened"] == len(keys)
        per_worker_commands = [
            p["commands"] for p in merged["per_worker"] if p is not None
        ]
        assert sum(per_worker_commands) == len(SCRIPT) * len(keys)
        if workers == 2:
            # The chosen keys really did exercise both shards.
            assert all(count > 0 for count in per_worker_commands)
