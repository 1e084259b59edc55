"""Memoized rule verdicts — the monitor fast path.

Every intercepted command pays a full rulebase scan (Fig. 2 lines 6-7):
each applicable rule's precondition re-derives its answer from the same
discrete state.  Under heavy multi-user traffic the same safe commands
recur against unchanged state — door cycles, staging moves, repeated
dosing — and the scan is pure: a verdict is a deterministic function of
``(action call, lab state, rulebase, model beliefs)``.

:class:`RuleVerdictCache` memoizes exactly that function.  The key is

- the frozen :class:`~repro.core.actions.ActionCall` itself (label,
  device, target, quantity, ... — everything a rule can read off it),
- the :meth:`LabState.fingerprint` content digest (any state transition
  produces a different digest, so a stale verdict can never be served),
- the rulebase revision (rules added at run time invalidate everything),
- the model belief fingerprint (time multiplexing swapping obstacle
  cuboids, space multiplexing appending walls, workspace-bound edits).

The digest is the actual content tuple rather than a lossy hash, so two
different states can never share a key.  Extra preconditions registered on
the model (the multiplexing hook) are *not* cached by the monitor — they
may consult ambient context such as the virtual clock — only the pure
rulebase scan is.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable, Optional, Tuple

from repro.obs import OBS

__all__ = ["RuleVerdictCache", "MISS"]

_OBS_ENTRIES = OBS.registry.gauge(
    "rabit_rule_cache_entries", "Rule-verdict cache occupancy."
)
_OBS_EVICTIONS = OBS.registry.counter(
    "rabit_rule_cache_evictions_total", "LRU evictions from the rule-verdict cache."
)

#: Sentinel distinguishing "no cached entry" from a cached ``None`` verdict
#: (a passing command's verdict *is* ``None``, and is the common case).
MISS = object()


class RuleVerdictCache:
    """A bounded LRU cache of rulebase verdicts.

    Values are either ``None`` (all rules passed) or a
    ``(rule_id, message)`` pair describing the first violated rule —
    precisely what :meth:`Rabit._validate` needs to reproduce its answer
    without rescanning.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Optional[Tuple[Any, str]]]" = (
            OrderedDict()
        )
        #: Lookup counters, surfaced by the latency benchmarks.
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Any:
        """The cached verdict for *key*, or the :data:`MISS` sentinel."""
        try:
            value = self._entries[key]
        except KeyError:
            self.misses += 1
            return MISS
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def store(self, key: Hashable, verdict: Optional[Tuple[Any, str]]) -> None:
        """Record *verdict* for *key*, evicting the oldest entry if full."""
        self._entries[key] = verdict
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            if OBS.enabled:
                _OBS_EVICTIONS.inc(1)
        if OBS.enabled:
            _OBS_ENTRIES.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counters snapshot for reports and benchmarks."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }
