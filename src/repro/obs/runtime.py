"""The process-wide observability runtime and its on/off switch.

:data:`OBS` is the singleton every instrumented module consults.  The
contract with the hot path is strict: when disabled (the default), an
instrumentation site costs one attribute read (``OBS.enabled``) and, for
span sites, one call returning a shared no-op context manager — nothing
is allocated, recorded, or timed, and the virtual clock is never touched.
The benchmark suite gates that promise (≤ 2 % on the collision-throughput
workload); the differential suite gates the stronger one, that enabling
observability changes no monitor verdicts.

Typical use (what ``python -m repro metrics`` does)::

    from repro.obs import OBS

    OBS.enable()
    OBS.bind_clock(rabit.clock)      # stamps spans with virtual time too
    ... run the workload ...
    OBS.collector.write_jsonl("trace.jsonl")
    print(OBS.registry.to_prometheus())
    OBS.disable(); OBS.reset()
"""

from __future__ import annotations

import contextvars
import time
from typing import Any, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import Span, SpanCollector

__all__ = ["OBS", "Observability"]


class _NullSpan:
    """Shared no-op context manager returned while observability is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanContext:
    """Context manager that opens a real span on the runtime's stack."""

    __slots__ = ("_obs", "_name", "_attrs", "_span")

    def __init__(self, obs: "Observability", name: str, attrs: dict) -> None:
        self._obs = obs
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._obs._open(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        assert self._span is not None
        if exc_type is not None:
            self._span.attributes.setdefault("error", exc_type.__name__)
        self._obs._close(self._span)
        return False


#: The open-span stack, held in a :mod:`contextvars` variable rather than
#: a plain list on the runtime.  Under asyncio each task sees its own
#: copy of the context, so two guard sessions interleaving awaits build
#: independent span trees instead of silently cross-parenting (the
#: guard-as-a-service front-end runs many sessions on one event loop).
#: The value is an immutable tuple — pushes and pops *set* a new tuple —
#: because a shared mutable list would leak edits across tasks that
#: inherited it.  Plain synchronous code is unaffected: it runs in the
#: one ambient context and sees the exact old behaviour.
_SPAN_STACK: contextvars.ContextVar[Tuple[Span, ...]] = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


class Observability:
    """Span collector + metrics registry behind one enable switch."""

    def __init__(self, capacity: int = 4096) -> None:
        #: The hot-path guard.  Instrumented modules read this attribute
        #: directly; everything else in the subsystem is behind it.
        self.enabled: bool = False
        self.registry = MetricsRegistry()
        self.collector = SpanCollector(capacity)
        self._clock: Optional[Any] = None
        self._next_id: int = 1

    # -- switch ------------------------------------------------------------

    def enable(self) -> "Observability":
        """Turn instrumentation on; returns self for chaining."""
        self.enabled = True
        return self

    def disable(self) -> "Observability":
        """Turn instrumentation off (the default state)."""
        self.enabled = False
        return self

    def bind_clock(self, clock: Optional[Any]) -> None:
        """Stamp future spans with *clock*'s virtual time (``clock.now``).

        Pass ``None`` to unbind.  The clock is only ever read, never
        advanced — observability must not perturb the latency accounting.
        """
        self._clock = clock

    def reset(self) -> None:
        """Clear spans, zero metrics, drop the clock and any open stack."""
        self.collector.clear()
        self.registry.reset()
        self._clock = None
        _SPAN_STACK.set(())
        self._next_id = 1

    # -- spans -------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Context manager timing a region; no-op while disabled.

        Yields the open :class:`Span` (or ``None`` when disabled — guard
        before touching it)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanContext(self, name, attributes)

    def _virtual_now(self) -> Optional[float]:
        clock = self._clock
        return clock.now if clock is not None else None

    def _open(self, name: str, attributes: dict) -> Span:
        stack = _SPAN_STACK.get()
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=stack[-1].span_id if stack else None,
            start_wall=time.perf_counter(),
            start_virtual=self._virtual_now(),
            attributes=dict(attributes),
        )
        self._next_id += 1
        _SPAN_STACK.set(stack + (span,))
        return span

    def _close(self, span: Span) -> None:
        span.end_wall = time.perf_counter()
        span.end_virtual = self._virtual_now()
        # Tolerate exception-skewed exits: close everything above *span*
        # (only this task's stack is touched — siblings on other tasks
        # keep their own open spans).
        stack = _SPAN_STACK.get()
        for i, open_span in enumerate(stack):
            if open_span is span:
                _SPAN_STACK.set(stack[:i])
                break
        self.collector.record(span)

    # -- summaries ---------------------------------------------------------

    def summary(self) -> dict:
        """The headline numbers a report or CLI table leads with."""
        reg = self.registry

        def total(name: str) -> float:
            metric = reg.get(name)
            return metric.total() if metric is not None else 0.0

        lookups = reg.get("rabit_rule_cache_lookups_total")
        hits = lookups.value(result="hit") if lookups is not None else 0.0
        misses = lookups.value(result="miss") if lookups is not None else 0.0
        return {
            "commands_intercepted": total("rabit_commands_intercepted_total"),
            "verdicts": _by_label(reg, "rabit_command_verdicts_total"),
            "alerts": _by_label(reg, "rabit_alerts_total"),
            "rule_cache_hits": hits,
            "rule_cache_misses": misses,
            "rule_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "trajectory_checks": _by_label(reg, "es_trajectory_checks_total"),
            "collision_segments_swept": total("es_segments_swept_total"),
            "geometry_pair_checks": total("geometry_pair_checks_total"),
            "device_commands": total("device_commands_total"),
            "parallel_mutants_dispatched": total("parallel_mutants_dispatched_total"),
            "parallel_mutants_completed": total("parallel_mutants_completed_total"),
            "spans_recorded": self.collector.recorded,
            "spans_dropped": self.collector.dropped,
        }


def _by_label(registry: MetricsRegistry, name: str) -> dict:
    """Counter series of *name* flattened to {joined-labels: value}."""
    metric = registry.get(name)
    if metric is None:
        return {}
    snap = metric.snapshot()
    out = {}
    for entry in snap["values"]:
        key = ",".join(str(v) for v in entry["labels"].values()) or "total"
        out[key] = entry["value"]
    return out


#: The process-wide runtime every instrumented module imports.
OBS = Observability()
