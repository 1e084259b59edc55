"""Synthetic trace generation — the RAD dataset substitute.

The real RAD holds three months of Hein Lab command traces.  We replay
the same workflows the traces came from — parameterized solubility runs
(Fig. 1(b)) with occasional centrifugation legs — on the simulated deck,
recording every intercepted command.  A second generator produces
Berlinguette-style spray-coating traces so the miner can perform the
paper's general/custom classification across labs.

Sessions vary deterministically (seeded) in dose amounts, dissolution
rounds, and whether optional legs run, mimicking months of heterogeneous
experiments.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.rad.trace import Trace, TraceDataset, events_from_records
from repro.workflow import run_preset


def _session(preset: str, params: Dict[str, Any], session_id: str, lab: str) -> Trace:
    """Run one preset session under modified RABIT; returns its trace.

    Every session must complete alert-free — the dataset holds only
    *normal* operation, which is what makes its invariants meaningful."""
    _dag, ctx, result = run_preset(preset, params)
    if not result.completed:  # pragma: no cover - generator invariant
        raise RuntimeError(
            f"RAD generator session {session_id} did not complete: {result.alert}"
        )
    return Trace(
        session_id=session_id,
        lab=lab,
        events=events_from_records(
            ctx.trace, ctx.deck.devices, interior_owner=ctx.deck.model.interior_owner
        ),
    )


def generate_hein_traces(sessions: int = 20, seed: int = 42) -> TraceDataset:
    """Replay *sessions* varied solubility experiments on the Hein deck
    (every session under RABIT, as the real lab runs)."""
    rng = np.random.default_rng(seed)
    dataset = TraceDataset(name="rad-hein")
    for session in range(sessions):
        params = {
            "amount_mg": float(rng.integers(3, 8)),
            "initial_solvent_ml": float(rng.integers(2, 6)),
            "temperature": float(rng.integers(40, 100)),
            "dissolution_rounds": int(rng.integers(1, 4)),
            "centrifuge_rpm": float(rng.integers(2000, 5000)),
        }
        dataset.traces.append(
            _session("solubility", params, f"hein-{session:04d}", "hein")
        )
    return dataset


def generate_berlinguette_traces(sessions: int = 12, seed: int = 7) -> TraceDataset:
    """Replay spray-coating runs; roughly a third are solvent-only.

    The solvent-only runs legitimately dose liquid into vials holding no
    solid — they are what stops the Hein Lab's solids-before-liquids
    invariant from classifying as a general rule.
    """
    rng = np.random.default_rng(seed)
    dataset = TraceDataset(name="rad-berlinguette")
    for session in range(sessions):
        params = {"solvent_only": bool(rng.random() < 0.34)}
        dataset.traces.append(
            _session(
                "spray_coating", params, f"berlinguette-{session:04d}", "berlinguette"
            )
        )
    return dataset


def generate_combined(
    hein_sessions: int = 20, berlinguette_sessions: int = 12, seed: int = 42
) -> TraceDataset:
    """Both labs' traces in one dataset (the classification input)."""
    combined = TraceDataset(name="rad-combined")
    combined.traces.extend(generate_hein_traces(hein_sessions, seed=seed).traces)
    combined.traces.extend(
        generate_berlinguette_traces(berlinguette_sessions, seed=seed + 1).traces
    )
    return combined
