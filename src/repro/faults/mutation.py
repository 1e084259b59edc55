"""Mutation operators over workflow DAGs and location tables.

The paper's naive programmer "could easily change the arguments of
commands (e.g., enter incorrect coordinates for robot arms), delete
commands (e.g., remove a command to close the door of a device), or
change the order of commands" — plus edit the hard-coded location
dictionary (Fig. 6).  Each operator below is one of those edit kinds,
held as plain data and applied to a workflow preset's
:class:`~repro.workflow.dag.WorkflowDAG` through its node surgery
(``drop``/``insert_after``/``swap``) or to the deck's location table.
One DAG node is one script statement, so the edits land at the
granularity the programmer typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.devices.world import LabWorld
from repro.workflow.dag import WorkflowDAG, WorkflowNode


class Mutation:
    """Base class; a mutation edits a workflow DAG and/or the deck."""

    def apply_to_dag(self, dag: WorkflowDAG) -> None:
        """Edit *dag* in place (default: unchanged)."""

    def apply_to_deck(self, world: LabWorld) -> None:
        """Mutate deck-side data (default: nothing)."""


@dataclass(frozen=True)
class DeleteLine(Mutation):
    """Delete one command (e.g. Bug A: omit re-opening the door)."""

    line_id: str

    def apply_to_dag(self, dag: WorkflowDAG) -> None:
        dag.drop(self.line_id)


@dataclass(frozen=True)
class InsertAfter(Mutation):
    """Insert new command(s) after an existing node (e.g. Bug B's extra
    Ned2 move)."""

    line_id: str
    new_lines: Tuple[WorkflowNode, ...]

    def apply_to_dag(self, dag: WorkflowDAG) -> None:
        after = self.line_id
        for node in self.new_lines:
            after = dag.insert_after(after, node.id, node.step, **node.params)


@dataclass(frozen=True)
class ReplaceLine(Mutation):
    """Replace one command with one or more others (changed arguments,
    or a buggy helper-function definition spelled out as raw commands)."""

    line_id: str
    replacement: Tuple[WorkflowNode, ...]

    def apply_to_dag(self, dag: WorkflowDAG) -> None:
        InsertAfter(self.line_id, self.replacement).apply_to_dag(dag)
        dag.drop(self.line_id)


@dataclass(frozen=True)
class SwapLines(Mutation):
    """Swap the order of two commands (the reorder edit kind)."""

    first_id: str
    second_id: str

    def apply_to_dag(self, dag: WorkflowDAG) -> None:
        dag.swap(self.first_id, self.second_id)


@dataclass(frozen=True)
class MutateLocation(Mutation):
    """Edit a hard-coded coordinate in the utilities file (Fig. 6, Bug D:
    ``"pickup": [0.15, 0.45, 0.10]`` -> ``[0.15, 0.45, 0.08]``)."""

    location_name: str
    frame: str
    new_coords: Tuple[float, float, float]

    def apply_to_deck(self, world: LabWorld) -> None:
        world.locations.get(self.location_name).set_coord(self.frame, self.new_coords)


def apply_mutations(
    dag: WorkflowDAG, world: LabWorld, mutations: Sequence[Mutation]
) -> WorkflowDAG:
    """Apply every mutation to *dag* (in place) and *world*; returns *dag*."""
    for mutation in mutations:
        mutation.apply_to_deck(world)
        mutation.apply_to_dag(dag)
    return dag
