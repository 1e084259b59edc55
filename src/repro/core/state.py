"""RABIT's discrete lab state.

Table II's state variables are *discrete*: ``deviceDoorStatus``,
``robotArmInside``, ``robotArmHolding`` — notably **not** Cartesian robot
positions.  This is load-bearing for the evaluation: because RABIT tracks
moves only through discrete containment changes, a ViperX that silently
skips a move (§IV, category 4) leaves no state discrepancy for RABIT to
notice, and two arms colliding mid-space (category 2) changes no tracked
variable at all.

State variables fall into two classes:

- **observable** — reported by a device status command, so ``FetchState()``
  refreshes them and the expected-vs-actual comparison (Fig. 2 lines 13-15)
  covers them: door status, device active flags, action values, rotor
  red-dot, vial stoppers, dosing totals.
- **tracked** — carried forward from postconditions only, because no
  sensor reports them: what a gripper holds, what a vial contains, where a
  vial rests, which robot is inside which device.

``LabState`` stores both as ``var -> key -> value`` nested mappings.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: Variables a status command can refresh.
OBSERVABLE_VARS = frozenset(
    {
        "door_status",  # device -> "open" | "closed"
        "device_active",  # device -> bool
        "action_value",  # device -> float
        "red_dot",  # centrifuge -> "N" | "E" | "S" | "W"
        "container_stopper",  # vial -> "on" | "off"
        "dispensed_mg",  # doser -> float
        "dispensed_ml",  # pump -> float
        "gripper",  # robot -> "open" | "closed"
        "zone_occupied",  # proximity sensor -> bool (§V-B extension)
    }
)

#: Variables only postconditions maintain (no sensor exists).
TRACKED_VARS = frozenset(
    {
        "robot_holding",  # robot -> vial name | None
        "robot_inside",  # robot -> device name | None
        "robot_entry_door",  # robot -> named door it entered through | None
        "container_at",  # vial -> location name | None
        "container_solid",  # vial -> mg (believed)
        "container_liquid",  # vial -> mL (believed)
    }
)

#: Observable variables that change *spontaneously* (no command drives
#: them): sensor readings.  They are refreshed by FetchState like any
#: observable, but excluded from the expected-vs-actual malfunction
#: comparison — a person stepping into a zone is not a device fault.
VOLATILE_VARS = frozenset({"zone_occupied"})

ALL_VARS = OBSERVABLE_VARS | TRACKED_VARS

#: Absolute tolerance when comparing float-valued observables.
FLOAT_TOLERANCE = 1e-6

#: Sentinel distinguishing "no entry" from a stored ``None`` value.
_ABSENT = object()

#: Value types whose equal values are interchangeable: no float inside
#: (``-0.0 == 0.0`` and ``nan != nan``), no mutable or container state.
#: :meth:`LabState.merge_observed` and :meth:`LabState.adopt_observed`
#: keep a stored entry only when the observed one is the same object, or
#: equal and of the same one of these types.
_PLAIN_TYPES = frozenset({str, int, bool})


class LabState:
    """One snapshot of every state variable of every device."""

    def __init__(self) -> None:
        self._vars: Dict[str, Dict[str, Any]] = {var: {} for var in ALL_VARS}
        #: Lazily computed content fingerprint; ``None`` means stale.
        self._fingerprint: Optional[Tuple] = None
        #: Incrementally maintained content token (see
        #: :meth:`fingerprint_token`): the XOR of ``hash((var, key,
        #: value))`` over every populated entry, updated in O(1) on each
        #: mutation instead of rebuilt from the full state.
        self._fp_token: int = 0

    # -- access ----------------------------------------------------------------

    def get(self, var: str, key: str, default: Any = None) -> Any:
        """Value of state variable *var* for device/vial/robot *key*."""
        self._check_var(var)
        return self._vars[var].get(key, default)

    def set(self, var: str, key: str, value: Any) -> None:
        """Set state variable *var* for *key* to *value*."""
        self._check_var(var)
        self._write(var, key, value)

    def _write(self, var: str, key: str, value: Any) -> None:
        """Store one entry, keeping the incremental token in sync.

        The token update is two integer XORs — no container is rebuilt,
        sorted, or even touched beyond the entry itself — which is what
        keeps cache-key construction off the guarded hot path."""
        entries = self._vars[var]
        old = entries.get(key, _ABSENT)
        if old is not _ABSENT:
            self._fp_token ^= hash((var, key, old))
        self._fp_token ^= hash((var, key, value))
        entries[key] = value
        self._fingerprint = None

    def entries(self, var: str) -> Dict[str, Any]:
        """All ``key -> value`` entries of one variable."""
        self._check_var(var)
        return dict(self._vars[var])

    def keys_where(self, var: str, value: Any) -> List[str]:
        """All keys whose *var* entry equals *value*."""
        self._check_var(var)
        return [k for k, v in self._vars[var].items() if v == value]

    def vial_at(self, location: str) -> Optional[str]:
        """Name of the vial RABIT believes rests at *location*."""
        matches = self.keys_where("container_at", location)
        return matches[0] if matches else None

    @staticmethod
    def _check_var(var: str) -> None:
        if var not in ALL_VARS:
            raise KeyError(f"unknown state variable {var!r}; known: {sorted(ALL_VARS)}")

    # -- snapshots --------------------------------------------------------------

    def copy(self) -> "LabState":
        """Deep copy of this snapshot."""
        dup = LabState()
        for var, entries in self._vars.items():
            dup._vars[var] = dict(entries)
        dup._fingerprint = self._fingerprint
        dup._fp_token = self._fp_token
        return dup

    def merge_observed(self, observed: "LabState") -> "LabState":
        """The paper's post-execution state: observed values override the
        expected values for observable variables; tracked variables carry
        forward unchanged (nothing can refresh them)."""
        merged = self.copy()
        for var in OBSERVABLE_VARS:
            stored = merged._vars[var]
            for key, value in observed._vars[var].items():
                old = stored.get(key, _ABSENT)
                # An unchanged entry keeps its stored value: the same
                # object, or an equal one of the same plain type, so the
                # entries, value types and token are what writing it
                # would give.  Floats are always written.
                if old is value or (
                    type(old) is type(value)
                    and type(value) in _PLAIN_TYPES
                    and old == value
                ):
                    continue
                merged._write(var, key, value)
        return merged

    def adopt_observed(
        self, var: str, key: str, value: Any
    ) -> Optional[Tuple[str, str, Any, Any]]:
        """Compare one reported entry with this snapshot, then adopt it.

        FetchState calls this on ``S_expected`` for every mapped status
        entry, which turns ``S_expected`` into ``S_current`` in place
        (Fig. 2 lines 13-16) with no observed snapshot in between: one
        pass over the reports leaves the entries, value types and token
        that :meth:`merge_observed` leaves, and the smallest ``(var,
        key)`` among the returned mismatches is the first one
        :meth:`diff_observable` reports.

        Returns ``(var, key, expected, actual)`` when *key* has an entry
        that differs by :meth:`diff_observable`'s predicate (volatile
        variables never do), else ``None``.  The value is written unless
        the stored one is the same object, or an equal one of the same
        plain type, as in :meth:`merge_observed`.  *var* must be an
        observable variable.
        """
        entries = self._vars[var]
        old = entries.get(key, _ABSENT)
        cls = type(value)
        if type(old) is cls and cls in _PLAIN_TYPES and old == value:
            return None
        mismatch = None
        if old is not _ABSENT and var not in VOLATILE_VARS:
            if isinstance(old, float) or isinstance(value, float):
                if abs(float(old) - float(value)) > FLOAT_TOLERANCE:
                    mismatch = (var, key, old, value)
            elif old != value:
                mismatch = (var, key, old, value)
        if old is not value:
            self._write(var, key, value)
        return mismatch

    def as_dict(self) -> Dict[str, Dict[str, Any]]:
        """Populated variables as plain nested dicts (JSON-safe when the
        stored values are; the trace recorder canonicalizes this)."""
        return {
            var: dict(self._vars[var])
            for var in sorted(self._vars)
            if self._vars[var]
        }

    def delta_from(self, previous: "LabState") -> List[Tuple[str, str, Any]]:
        """Entries that changed since *previous*, as sorted triples.

        Returns ``(var, key, new_value)`` for every entry added or
        changed, and ``(var, key, None)`` for the (in practice unused)
        removal case — the state-delta stream a run trace records."""
        changes: List[Tuple[str, str, Any]] = []
        for var in sorted(ALL_VARS):
            mine = self._vars[var]
            theirs = previous._vars[var]
            for key in sorted(set(mine) | set(theirs)):
                if key not in mine:
                    changes.append((var, key, None))
                elif key not in theirs or mine[key] != theirs[key]:
                    changes.append((var, key, mine[key]))
        return changes

    # -- fingerprinting -----------------------------------------------------

    def fingerprint(self) -> Tuple:
        """A stable, hashable digest of the full state contents.

        Two snapshots with equal contents produce equal fingerprints, and
        any mutation through :meth:`set` / :meth:`adopt_observed`
        invalidates the cached value.  The rule-verdict cache keys on this
        (plus the action call), so a verdict computed under one state can
        never be served under a different one — the digest is the actual
        content tuple, not a lossy hash, so collisions are impossible.
        """
        if self._fingerprint is None:
            self._fingerprint = tuple(
                (var, tuple(sorted(self._vars[var].items())))
                for var in sorted(self._vars)
                if self._vars[var]
            )
        return self._fingerprint

    def fingerprint_token(self) -> int:
        """The incremental content token — the compiled-dispatch cache key.

        The XOR of ``hash((var, key, value))`` over every stored entry,
        maintained entry-by-entry on mutation: content-equal snapshots
        produce equal tokens regardless of mutation history (XOR is
        commutative and self-inverse), and reading it costs one
        attribute access instead of the O(state) sorted-tuple rebuild
        :meth:`fingerprint` pays after every mutation.  Unlike the exact
        content tuple this is a lossy 64-bit digest — two *different*
        states colliding is possible in principle (~2^-64 per pair) —
        which is why the interpreted reference path keeps the exact
        tuple and the differential suite pins both paths to identical
        verdicts.
        """
        return self._fp_token

    # -- comparison ---------------------------------------------------------------

    def diff_observable(self, other: "LabState") -> List[Tuple[str, str, Any, Any]]:
        """Mismatches between two snapshots over observable variables.

        Compares only keys present in *both* snapshots — a device that
        reports an extra field is not a malfunction; a device whose
        expected value differs from its report is.  Returns tuples of
        ``(var, key, expected, actual)``.
        """
        mismatches: List[Tuple[str, str, Any, Any]] = []
        for var in sorted(OBSERVABLE_VARS - VOLATILE_VARS):
            mine = self._vars[var]
            theirs = other._vars[var]
            for key in sorted(set(mine) & set(theirs)):
                a, b = mine[key], theirs[key]
                if isinstance(a, float) or isinstance(b, float):
                    if abs(float(a) - float(b)) > FLOAT_TOLERANCE:
                        mismatches.append((var, key, a, b))
                elif a != b:
                    mismatches.append((var, key, a, b))
        return mismatches

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        populated = {
            var: entries for var, entries in self._vars.items() if entries
        }
        return f"LabState({populated!r})"
