"""Monte Carlo bug injection — the study the paper says it could not run.

§IV: "without exhaustive testing (which requires generating large bug
datasets — a challenging task in itself), we do not know if these numbers
are representative of what we might see in practice."

On a simulated deck the large bug dataset is cheap: this module samples
random single-edit mutations of the safe Fig. 5 preset — the same three
edit kinds the naive programmer used (delete a command, reorder commands,
perturb an argument/coordinate) — runs each mutant end to end, and scores
RABIT against *ground truth*:

- a mutant is **harmful** when the unmonitored world records damage (or a
  device fault halts it);
- RABIT's verdict is **detected** when the monitored run stops on an alert.

The confusion matrix gives an estimated detection rate over a much larger
sample than 16 hand-made bugs, plus the empirical false-alarm rate on
*benign* mutants (mutations that change nothing safety-relevant), which
the paper's zero-false-positive claim predicts to be zero.

Determinism contract: mutant *i* of a sweep seeded with *s* is a pure
function of ``(s, i)`` — each sample owns an RNG derived via
``SeedSequence(s, spawn_key=(i,))`` rather than drawing from one shared
sequential stream.  Growing the sample count, reordering execution, or
sharding the sweep across a process pool (``workers > 1`` delegates to
:mod:`repro.parallel`) therefore never changes an earlier outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.interceptor import CommandRecord
from repro.core.monitor import RabitOptions
from repro.faults.mutation import (
    DeleteLine,
    Mutation,
    MutateLocation,
    SwapLines,
    apply_mutations,
)
from repro.testbed.deck import LOCATIONS
from repro.workflow import (
    WorkflowRunResult,
    build_context,
    build_preset,
    execute_dag,
)

#: The safe workflow every mutant edits.
_PRESET = "testbed_fig5"

#: Nodes that must not be sampled for deletion/reordering because
#: removing them only truncates the tail (no safety semantics) — keeps the
#: mutant population focused on meaningful edits.
_STRUCTURAL_TAIL = {"ned2_sleep"}

#: Locations whose coordinates the perturbation operator may edit, with
#: the frame they are expressed in.
_PERTURBABLE_LOCATIONS: Tuple[Tuple[str, str], ...] = (
    ("grid_nw_viperx", "viperx"),
    ("grid_nw_viperx_safe", "viperx"),
    ("dosing_approach_viperx", "viperx"),
    ("dosing_safe_viperx", "viperx"),
    ("dosing_pickup_viperx", "viperx"),
    ("grid_ne_ned2", "ned2"),
    ("grid_ne_ned2_safe", "ned2"),
)


@dataclass(frozen=True)
class MutantOutcome:
    """Ground truth vs. RABIT verdict for one sampled mutant."""

    seed: int
    description: str
    harmful: bool  # unmonitored ground truth recorded damage / fault
    detected: bool  # monitored run stopped on a RABIT alert
    damage_kinds: Tuple[str, ...]

    @property
    def classification(self) -> str:
        """Confusion-matrix cell for this mutant."""
        if self.harmful and self.detected:
            return "true_positive"
        if self.harmful and not self.detected:
            return "false_negative"
        if not self.harmful and self.detected:
            return "false_positive"
        return "true_negative"

    def as_dict(self) -> dict:
        """JSON-safe dict of every field (the JSONL export row)."""
        return {
            "index": self.seed,
            "description": self.description,
            "harmful": self.harmful,
            "detected": self.detected,
            "damage_kinds": list(self.damage_kinds),
            "classification": self.classification,
        }


@dataclass
class MonteCarloReport:
    """Aggregate of a mutant sweep."""

    outcomes: List[MutantOutcome] = field(default_factory=list)

    def count(self, cell: str) -> int:
        """Mutants in one confusion-matrix cell."""
        return sum(1 for o in self.outcomes if o.classification == cell)

    @property
    def harmful_total(self) -> int:
        """Mutants whose unmonitored run caused damage."""
        return sum(1 for o in self.outcomes if o.harmful)

    @property
    def detection_rate(self) -> float:
        """Detected fraction of harmful mutants."""
        if self.harmful_total == 0:
            return 0.0
        return self.count("true_positive") / self.harmful_total

    @property
    def false_alarm_rate(self) -> float:
        """Alert fraction of benign mutants (paper's claim: 0)."""
        benign = len(self.outcomes) - self.harmful_total
        if benign == 0:
            return 0.0
        return self.count("false_positive") / benign

    def canonical_bytes(self) -> bytes:
        """Canonical JSON serialization of every outcome field.

        The differential harness's equality witness: two sweeps agree iff
        these bytes agree, regardless of how either was executed.  Uses
        the shared :mod:`repro.trace.canon` serialization (sorted keys,
        compact separators, ASCII, NaN rejected)."""
        from repro.trace.canon import canonical_bytes

        return canonical_bytes([o.as_dict() for o in self.outcomes])


def _rng_for_sample(base_seed: int, index: int) -> np.random.Generator:
    """The RNG owned by mutant *index* of a sweep seeded with *base_seed*.

    Derived from ``(base_seed, index)`` alone, so every sample's stream is
    independent of how many other samples run, in what order, or in which
    process."""
    return np.random.default_rng(np.random.SeedSequence(base_seed, spawn_key=(index,)))


def reference_line_ids() -> List[str]:
    """Node ids of the safe Fig. 5 preset that mutations may target,
    in script order (pure, so every worker derives the identical list)."""
    return [n for n in build_preset(_PRESET).nodes if n not in _STRUCTURAL_TAIL]


def _sample_mutation(
    rng: np.random.Generator, line_ids: Sequence[str]
) -> Tuple[str, Tuple[Mutation, ...]]:
    """Sample one naive-programmer edit; returns (description, mutations)."""
    kind = rng.choice(["delete", "swap", "perturb"])
    if kind == "delete":
        target = str(rng.choice(line_ids))
        return f"delete {target}", (DeleteLine(target),)
    if kind == "swap":
        index = int(rng.integers(0, len(line_ids) - 1))
        first, second = line_ids[index], line_ids[index + 1]
        return f"swap {first} <-> {second}", (SwapLines(first, second),)
    location, frame = _PERTURBABLE_LOCATIONS[
        int(rng.integers(0, len(_PERTURBABLE_LOCATIONS)))
    ]
    axis = int(rng.integers(0, 3))
    delta = float(rng.choice([-0.08, -0.04, 0.04, 0.08]))
    coords = list(LOCATIONS[location][2][frame])
    coords[axis] += delta
    return (
        f"perturb {location}.{'xyz'[axis]} by {delta:+.2f}",
        (MutateLocation(location, frame, tuple(coords)),),
    )


def _run_mutant(
    mutations: Sequence[Mutation],
    monitored: bool,
    options: Optional[RabitOptions] = None,
) -> Tuple[WorkflowRunResult, Tuple[str, ...], List[CommandRecord]]:
    """Run one mutant of the Fig. 5 preset; returns (result, damage
    kinds, command records)."""
    dag = build_preset(_PRESET)
    ctx = build_context(
        dag.deck, dag.deck_params, dag.prepare, options=options, monitored=monitored
    )
    result = execute_dag(apply_mutations(dag, ctx.world, mutations), ctx)
    return result, tuple(sorted({d.kind for d in ctx.world.damage_log})), ctx.trace


def run_mutant_monitored(seed: int, index: int, options=None):
    """Re-execute the *monitored* leg of mutant ``(seed, index)``.

    A pure function of the pair (same contract as :func:`score_mutant`),
    which is what lets a failed mutant's trace be recorded after the
    fact — in the parent process, after a sharded sweep — and still be
    byte-identical to what the worker saw.  *options* overrides the
    monitor configuration (default: modified RABIT); verdicts are pinned
    dispatch-invariant, so passing an interpreted-dispatch variant keeps
    the recorded trace replayable.  Returns
    ``(description, WorkflowRunResult, command records)``."""
    description, mutations = _sample_mutation(
        _rng_for_sample(seed, index), reference_line_ids()
    )
    result, _, records = _run_mutant(mutations, monitored=True, options=options)
    return description, result, records


def score_mutant(index: int, base_seed: int, line_ids: Sequence[str]) -> MutantOutcome:
    """Sample and score mutant *index* of the sweep seeded *base_seed*.

    The single unit of work both the sequential loop and the parallel
    shards execute — a pure function of ``(base_seed, index)`` (plus the
    deterministic *line_ids*), which is what makes the sharded sweep
    mergeable in any order."""
    description, mutations = _sample_mutation(
        _rng_for_sample(base_seed, index), line_ids
    )
    try:
        truth, truth_damage, _ = _run_mutant(mutations, monitored=False)
        verdict, _, _ = _run_mutant(mutations, monitored=True)
    except Exception as exc:  # noqa: BLE001 - classify, don't crash the sweep
        return MutantOutcome(
            seed=index,
            description=f"{description} (errored: {type(exc).__name__})",
            harmful=True,
            detected=False,
            damage_kinds=("harness_error",),
        )
    # An unmonitored run halted by a device fault (Ned2 raising) is
    # counted as harmful: the experiment broke mid-flight.
    if truth.stopped_by_device:
        truth_damage = truth_damage + ("device_fault_halt",)
    return MutantOutcome(
        seed=index,
        description=description,
        harmful=bool(truth_damage),
        detected=verdict.stopped_by_rabit,
        damage_kinds=truth_damage,
    )


def run_monte_carlo(
    samples: int = 40,
    seed: int = 2024,
    workers: Optional[int] = 1,
    trace_dir: Optional[str] = None,
    generator: str = "mutant",
) -> MonteCarloReport:
    """Sample *samples* cases; score each against ground truth.

    *generator* picks the case source: ``"mutant"`` (the default)
    samples random single-edit mutations of the Fig. 5 preset;
    ``"dag"`` composes whole random workflows from the step registry
    (:func:`repro.workflow.fuzz.score_dag`) — same seeds, same confusion
    matrix, same sharding.

    Each case runs twice: once unmonitored (ground truth — is it
    actually harmful?) and once under modified RABIT (the verdict).
    Deterministic under *seed* for every *workers* value: ``workers > 1``
    shards the sweep over a process pool (``None`` means one worker per
    CPU), and the merged report is identical to the sequential one.

    With *trace_dir* set, every *failed* case — a false negative or a
    false positive — auto-dumps a replayable run trace of its monitored
    leg there (recorded parent-side after the sweep; case runs are
    pure functions of ``(seed, index)``, so the re-recorded trace is
    exactly what the sweep executed).
    """
    from repro.parallel.engine import resolve_workers

    if generator not in ("mutant", "dag"):
        raise ValueError(
            f"unknown generator {generator!r}; use 'mutant' or 'dag'"
        )
    sharded = resolve_workers(workers, samples) > 1
    if generator == "dag":
        if sharded:
            from repro.parallel.runners import run_dag_fuzz_sharded

            report = run_dag_fuzz_sharded(samples=samples, seed=seed, workers=workers)
        else:
            from repro.workflow.fuzz import score_dag

            report = MonteCarloReport()
            for index in range(samples):
                report.outcomes.append(score_dag(index, seed))
    elif sharded:
        from repro.parallel.runners import run_monte_carlo_sharded

        report = run_monte_carlo_sharded(samples=samples, seed=seed, workers=workers)
    else:
        line_ids = reference_line_ids()
        report = MonteCarloReport()
        for index in range(samples):
            report.outcomes.append(score_mutant(index, seed, line_ids))
    if trace_dir is not None:
        from repro.trace.workloads import dump_traces

        # Misclassified cases only; a harness error crashed the run
        # itself, so there is nothing to replay.
        workload = "fuzz" if generator == "dag" else "mutant"
        dump_traces(
            (
                (workload, {"seed": seed, "index": o.seed}, f"{workload}-s{seed}-i{o.seed}")
                for o in report.outcomes
                if o.classification in ("false_negative", "false_positive")
                and "harness_error" not in o.damage_kinds
            ),
            trace_dir,
        )
    return report
