"""The workflow DAG: nodes bind steps to parameters, edges carry outcome.

The graph model follows eNMS's workflow graphs: every edge is labelled
with the *outcome* it follows — ``success`` (the step ran clean) or
``failure`` (RABIT stopped it, or the device faulted) — and the executor
walks exactly one edge per node, so a workflow with no failure edges
behaves like a linear script (first fault ends the run), while a
failure edge turns a fault into a declared recovery path.

A DAG serializes to a self-contained canonical spec
(``repro.workflow/v1``): deck name + deck parameters + declarative vial
preparation + nodes + edges.  ``from_spec(to_spec(dag))`` is the
identity, and the canonical bytes (shared :mod:`repro.trace.canon`
serialization) are the diff/export witness.

Surgery helpers (:meth:`WorkflowDAG.drop`, :meth:`WorkflowDAG.
insert_after`, :meth:`WorkflowDAG.swap`) are what the fault injector's
``DeleteLine``/``InsertAfter``/``ReplaceLine``/``SwapLines`` mutations
apply at node granularity, and how the Bug A/B/C presets are expressed
as edits of the safe Fig. 5 preset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.workflow.registry import REGISTRY, StepError, StepRegistry

__all__ = [
    "SCHEMA",
    "WorkflowError",
    "WorkflowNode",
    "WorkflowEdge",
    "WorkflowDAG",
]

#: The spec schema identifier; bumped on any incompatible shape change.
SCHEMA = "repro.workflow/v1"

_OUTCOMES = ("success", "failure")


class WorkflowError(ValueError):
    """A malformed workflow graph or spec."""


@dataclass
class WorkflowNode:
    """One node: a step name plus its parameter bindings."""

    id: str
    step: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkflowEdge:
    """A directed, outcome-labelled edge."""

    src: str
    dst: str
    on: str = "success"


class WorkflowDAG:
    """A declarative workflow over a named deck."""

    def __init__(
        self,
        name: str,
        deck: str = "hein",
        description: str = "",
        deck_params: Optional[Mapping[str, Any]] = None,
        prepare: Optional[List[Dict[str, Any]]] = None,
    ) -> None:
        self.name = name
        self.deck = deck
        self.description = description
        self.deck_params: Dict[str, Any] = dict(deck_params or {})
        self.prepare: List[Dict[str, Any]] = [dict(p) for p in (prepare or [])]
        #: Insertion-ordered; the order is purely cosmetic (spec diffs),
        #: execution order comes from the edges.
        self.nodes: Dict[str, WorkflowNode] = {}
        self.edges: List[WorkflowEdge] = []
        self.entry: Optional[str] = None
        self._tail: Optional[str] = None

    # -- construction -------------------------------------------------

    def add_node(
        self, node_id: str, step: str, params: Optional[Mapping[str, Any]] = None
    ) -> str:
        """Add an unconnected node (spec loading; explicit wiring)."""
        if node_id in self.nodes:
            raise WorkflowError(f"duplicate node id {node_id!r}")
        self.nodes[node_id] = WorkflowNode(node_id, step, dict(params or {}))
        if self.entry is None:
            self.entry = node_id
        return node_id

    def then(self, node_id: str, step: str, **params: Any) -> str:
        """Add a node chained by a success edge from the last one added —
        the builder idiom for linear scripts."""
        previous = self._tail
        self.add_node(node_id, step, params)
        if previous is not None:
            self.edge(previous, node_id)
        self._tail = node_id
        return node_id

    def edge(self, src: str, dst: str, on: str = "success") -> None:
        """Add an outcome-labelled edge (``on``: success or failure)."""
        if on not in _OUTCOMES:
            raise WorkflowError(f"edge outcome must be one of {_OUTCOMES}, got {on!r}")
        for existing in self.edges:
            if existing.src == src and existing.on == on:
                raise WorkflowError(
                    f"node {src!r} already has a {on} edge (to {existing.dst!r})"
                )
        self.edges.append(WorkflowEdge(src, dst, on))

    def successor(self, node_id: str, on: str) -> Optional[str]:
        """The node the executor visits after *node_id* on outcome *on*."""
        for edge in self.edges:
            if edge.src == node_id and edge.on == on:
                return edge.dst
        return None

    # -- surgery (the mutation-operator analogues) ---------------------

    def drop(self, node_id: str) -> None:
        """Remove a node, splicing predecessors onto its success
        successor — the ``DeleteLine`` analogue."""
        if node_id not in self.nodes:
            raise WorkflowError(f"cannot drop unknown node {node_id!r}")
        bypass = self.successor(node_id, "success")
        del self.nodes[node_id]
        rewired: List[WorkflowEdge] = []
        for edge in self.edges:
            if edge.src == node_id:
                continue
            if edge.dst == node_id:
                if bypass is not None:
                    rewired.append(WorkflowEdge(edge.src, bypass, edge.on))
                continue
            rewired.append(edge)
        self.edges = rewired
        if self.entry == node_id:
            self.entry = bypass
        if self._tail == node_id:
            self._tail = bypass

    def insert_after(
        self, after_id: str, node_id: str, step: str, **params: Any
    ) -> str:
        """Splice a new node into *after_id*'s success path — the
        ``InsertAfter`` analogue."""
        if after_id not in self.nodes:
            raise WorkflowError(f"cannot insert after unknown node {after_id!r}")
        displaced = self.successor(after_id, "success")
        self.add_node(node_id, step, params)
        if displaced is not None:
            self.edges = [
                e
                for e in self.edges
                if not (e.src == after_id and e.on == "success")
            ]
            self.edge(node_id, displaced)
        self.edge(after_id, node_id)
        if self._tail == after_id:
            self._tail = node_id
        return node_id

    def swap(self, first: str, second: str) -> None:
        """Exchange two nodes' places — the ``SwapLines`` analogue: the
        two ids trade places in every edge and in the entry."""
        for node_id in (first, second):
            if node_id not in self.nodes:
                raise WorkflowError(f"cannot swap unknown node {node_id!r}")
        trade = {first: second, second: first}
        self.edges = [
            WorkflowEdge(trade.get(e.src, e.src), trade.get(e.dst, e.dst), e.on)
            for e in self.edges
        ]
        self.entry = trade.get(self.entry, self.entry)
        self._tail = trade.get(self._tail, self._tail)

    # -- validation ----------------------------------------------------

    def validate(self, registry: StepRegistry = REGISTRY) -> None:
        """Full load-time validation: structure, steps, bindings.

        Raises :class:`WorkflowError` (graph shape) or
        :class:`~repro.workflow.registry.StepError` (step bindings)
        before anything touches a device.
        """
        if not self.nodes:
            raise WorkflowError(f"workflow {self.name!r} has no nodes")
        if self.entry is None or self.entry not in self.nodes:
            raise WorkflowError(
                f"workflow {self.name!r} entry {self.entry!r} is not a node"
            )
        for edge in self.edges:
            for end in (edge.src, edge.dst):
                if end not in self.nodes:
                    raise WorkflowError(
                        f"edge {edge.src!r} -> {edge.dst!r} references "
                        f"unknown node {end!r}"
                    )
            if edge.on not in _OUTCOMES:
                raise WorkflowError(
                    f"edge {edge.src!r} -> {edge.dst!r} has invalid "
                    f"outcome {edge.on!r}"
                )
        for node in self.nodes.values():
            spec = registry.get(node.step)
            try:
                spec.bind(node.params)
            except StepError as exc:
                raise StepError(f"node {node.id!r}: {exc}") from None
        self._check_acyclic_and_reachable()

    def _check_acyclic_and_reachable(self) -> None:
        """Iterative DFS from the entry: no cycles (executor totality) and
        no orphan nodes (a spec should not carry dead weight silently).
        Iterative so a long linear spec cannot exhaust the call stack."""
        out: Dict[str, List[str]] = {}
        for edge in self.edges:
            out.setdefault(edge.src, []).append(edge.dst)
        assert self.entry is not None
        seen: Dict[str, int] = {self.entry: 1}  # 1 = on the path, 2 = done
        path = [self.entry]
        pending = [iter(out.get(self.entry, ()))]
        while pending:
            nxt = next(pending[-1], None)
            if nxt is None:
                seen[path.pop()] = 2
                pending.pop()
            elif seen.get(nxt) == 1:
                cycle = " -> ".join(path + [nxt])
                raise WorkflowError(f"workflow {self.name!r} has a cycle: {cycle}")
            elif nxt not in seen:
                seen[nxt] = 1
                path.append(nxt)
                pending.append(iter(out.get(nxt, ())))
        orphans = sorted(set(self.nodes) - set(seen))
        if orphans:
            raise WorkflowError(
                f"workflow {self.name!r} has unreachable nodes: {orphans}"
            )

    # -- serialization -------------------------------------------------

    def to_spec(self) -> Dict[str, Any]:
        """The self-contained JSON-safe spec (canonicalizable)."""
        return {
            "schema": SCHEMA,
            "name": self.name,
            "description": self.description,
            "deck": self.deck,
            "deck_params": dict(self.deck_params),
            "prepare": [dict(p) for p in self.prepare],
            "entry": self.entry,
            "nodes": [
                {"id": n.id, "step": n.step, "params": dict(n.params)}
                for n in self.nodes.values()
            ],
            "edges": [
                {"from": e.src, "to": e.dst, "on": e.on} for e in self.edges
            ],
        }

    def spec_bytes(self) -> bytes:
        """Canonical bytes of the spec — the export/diff witness."""
        from repro.trace.canon import canonical_bytes

        return canonical_bytes(self.to_spec())

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "WorkflowDAG":
        """Rebuild a DAG from a spec dict; strict on schema and shape."""
        if not isinstance(spec, Mapping):
            raise WorkflowError(
                f"a workflow spec must be a JSON object, got {type(spec).__name__}"
            )
        schema = spec.get("schema")
        if schema != SCHEMA:
            raise WorkflowError(
                f"unsupported workflow spec schema {schema!r} (expected {SCHEMA!r})"
            )
        dag = cls(
            name=str(spec.get("name", "")),
            deck=str(spec.get("deck", "hein")),
            description=str(spec.get("description", "")),
            deck_params=spec.get("deck_params") or {},
            prepare=list(spec.get("prepare") or []),
        )
        for node in spec.get("nodes") or []:
            params = node.get("params") if isinstance(node, Mapping) else None
            if params is not None and not isinstance(params, Mapping):
                raise WorkflowError(f"node params must be an object: {node!r}")
            try:
                dag.add_node(str(node["id"]), str(node["step"]), params)
            except (KeyError, TypeError):
                raise WorkflowError(f"malformed node entry: {node!r}") from None
        for edge in spec.get("edges") or []:
            try:
                dag.edge(str(edge["from"]), str(edge["to"]), str(edge.get("on", "success")))
            except (KeyError, TypeError):
                raise WorkflowError(f"malformed edge entry: {edge!r}") from None
        entry = spec.get("entry")
        if entry is not None:
            dag.entry = str(entry)
        return dag
