"""Observability under asyncio concurrency: the serve regression suite.

The guard service multiplexes many sessions on one event loop, which
exposed two latent concurrency hazards in ``repro.obs``:

1. the span stack was effectively global — two interleaved
   ``guard_async`` calls could parent one session's child spans under
   the *other* session's open guard span (fixed: the stack lives in a
   ``ContextVar``, one stack per task);
2. ``MetricsRegistry`` get-or-create raced under threads (fixed: a
   lock), which matters because benchmark workers and the service share
   the process-global registry.

These tests hammer both from interleaved tasks/threads and pin the
fixed behaviour; they also re-check that rule-verdict caches stay
per-session when their guards interleave.
"""

import asyncio
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import OBS
from repro.serve.batcher import SweepBatcher
from repro.serve.session import GuardSession


@pytest.fixture(autouse=True)
def _clean_global_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def _ancestors(span, by_id):
    chain = []
    parent = span.parent_id
    while parent is not None:
        parent_span = by_id[parent]
        chain.append(parent_span)
        parent = parent_span.parent_id
    return chain


def test_interleaved_tasks_keep_separate_span_stacks():
    """Two tasks nesting spans around awaits never cross-parent."""

    async def worker(tag, barrier):
        with OBS.span(f"outer.{tag}"):
            await barrier.wait()  # both outers are open simultaneously
            with OBS.span(f"inner.{tag}"):
                await asyncio.sleep(0)
            await asyncio.sleep(0)
            with OBS.span(f"inner2.{tag}"):
                await asyncio.sleep(0)

    async def main():
        barrier = asyncio.Barrier(2)
        await asyncio.gather(worker("a", barrier), worker("b", barrier))

    OBS.enable()
    asyncio.run(main())

    spans = OBS.collector.spans()
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.name.startswith("inner"):
            tag = span.name.split(".")[1]
            parents = [a.name for a in _ancestors(span, by_id)]
            assert parents == [f"outer.{tag}"], (
                f"{span.name} parented under {parents} — span stacks leaked "
                "across tasks"
            )


def test_interleaved_sessions_parent_guard_spans_correctly():
    """Two live sessions' guard/execute span trees never intermix."""

    async def main():
        batcher = SweepBatcher()
        batcher.start()
        a = GuardSession(1, "hein_lean", batcher=batcher, io_latency=0.003)
        b = GuardSession(2, "hein_lean", batcher=batcher, io_latency=0.003)

        async def drive(session, tag, method, args):
            with OBS.span(f"session.{tag}"):
                for _ in range(4):
                    response = await session.run_command("ur3e", method, args)
                    assert response["ok"], response

        # Distinct labels per session let each guard span be attributed
        # to its issuer from the span data alone.
        await asyncio.gather(
            drive(a, "a", "move_to_location", ("grid_a1_safe",)),
            drive(b, "b", "go_to_home_pose", ()),
        )
        await batcher.stop()

    OBS.enable()
    asyncio.run(main())

    spans = OBS.collector.spans()
    by_id = {s.span_id: s for s in spans}
    guards = [s for s in spans if s.name == "rabit.guard"]
    assert len(guards) == 8
    for guard in guards:
        # Service commands are intercepted like proxied ones.
        assert by_id[guard.parent_id].name == "intercept.command"
        expected = "session.a" if guard.attributes["label"] == "move_robot" else "session.b"
        roots = [a.name for a in _ancestors(guard, by_id) if a.name.startswith("session.")]
        assert roots == [expected], (
            f"guard span (label={guard.attributes['label']}) rooted under "
            f"{roots}, expected [{expected!r}]"
        )
    # Children (validate/execute/fetch_state) must sit under a guard of
    # the same tree, never under the sibling session's guard.  The only
    # legitimate root-level fetch is the one session construction runs
    # before any guard exists.
    for span in spans:
        if span.name in ("rabit.validate", "rabit.execute"):
            assert by_id[span.parent_id].name == "rabit.guard", span.name
        elif span.name == "rabit.fetch_state" and span.parent_id is not None:
            assert by_id[span.parent_id].name == "rabit.guard"


def test_interleaved_sessions_keep_private_rule_caches():
    async def main():
        batcher = SweepBatcher()
        batcher.start()
        a = GuardSession(1, "hein_lean", batcher=batcher, io_latency=0.001)
        b = GuardSession(2, "hein_lean", batcher=batcher, io_latency=0.001)
        assert a.rabit.rule_cache is not b.rabit.rule_cache

        async def drive(session):
            for _ in range(4):
                await session.run_command("ur3e", "go_to_home_pose", ())

        await asyncio.gather(drive(a), drive(b))
        await batcher.stop()
        # Both sessions saw the identical command sequence, so their
        # private caches must tell the identical story — any hit/miss
        # asymmetry would mean one session's verdicts leaked into the
        # other's cache.
        assert (a.rabit.rule_cache.hits, a.rabit.rule_cache.misses) == (
            b.rabit.rule_cache.hits,
            b.rabit.rule_cache.misses,
        )
        assert a.rabit.rule_cache.misses >= 1

    asyncio.run(main())


def test_metrics_registry_get_or_create_is_thread_safe():
    OBS.enable()
    registry = OBS.registry

    def create(i):
        # Everyone fights over the same few names; each name must
        # resolve to exactly one metric object.
        results = []
        for j in range(25):
            name = f"serve_race_metric_{j % 5}"
            results.append((name, registry.counter(name, "race test")))
        return results

    with ThreadPoolExecutor(max_workers=8) as pool:
        all_results = [r for chunk in pool.map(create, range(8)) for r in chunk]

    canonical = {}
    for name, metric in all_results:
        canonical.setdefault(name, metric)
        assert metric is canonical[name], (
            f"{name} resolved to two distinct metric objects under threads"
        )
