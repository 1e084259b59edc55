"""The §II-C latency-overhead experiment.

"We evaluated the latency overhead due to RABIT.  Without the Extended
Simulator, RABIT incurs approximately 0.03 s overhead (1.5 %) ...
However, with the Extended Simulator, RABIT incurs approximately 2 s
overhead (112 %)."

The experiment runs the same safe workflow three ways on the virtual
clock — unmonitored, with RABIT, and with RABIT + Extended Simulator
(GUI in the loop) — and reports the per-command overhead and percentage.
All latency sources are deterministic charges (device execution,
connection round-trips, bookkeeping, simulated GUI renders), so the
reproduction is exact across machines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.clock import VirtualClock
from repro.core.monitor import RabitOptions
from repro.workflow import build_context, build_preset, execute_dag


@dataclass(frozen=True)
class LatencyReport:
    """One configuration's virtual-time accounting."""

    configuration: str
    commands: int
    experiment_seconds: float
    rabit_seconds: float

    @property
    def total_seconds(self) -> float:
        """Wall time of the monitored run."""
        return self.experiment_seconds + self.rabit_seconds

    @property
    def overhead_per_command(self) -> float:
        """Average RABIT overhead per command (the paper's 0.03 s / ~2 s)."""
        return self.rabit_seconds / self.commands if self.commands else 0.0

    @property
    def overhead_percent(self) -> float:
        """Overhead relative to the unmonitored baseline (1.5 % / 112 %)."""
        if self.experiment_seconds == 0:
            return 0.0
        return 100.0 * self.rabit_seconds / self.experiment_seconds

    def as_dict(self) -> dict:
        """JSON-safe dict of every field plus the derived figures."""
        return {
            "configuration": self.configuration,
            "commands": self.commands,
            "experiment_seconds": self.experiment_seconds,
            "rabit_seconds": self.rabit_seconds,
            "total_seconds": self.total_seconds,
            "overhead_per_command": self.overhead_per_command,
            "overhead_percent": self.overhead_percent,
        }

    def canonical_bytes(self) -> bytes:
        """Canonical serialization via the shared :mod:`repro.trace.canon`
        witness — the recording-on/off differential test compares these."""
        from repro.trace.canon import canonical_bytes

        return canonical_bytes(self.as_dict())


def _run_once(
    monitored: bool, use_es: bool, bypass_gui: bool = False, compiled: bool = True
) -> LatencyReport:
    clock = VirtualClock()
    options = RabitOptions.modified(
        use_extended_simulator=use_es, bypass_gui=bypass_gui,
        compiled_dispatch=compiled,
    )
    dag = build_preset("solubility")
    ctx = build_context(
        dag.deck, dag.deck_params, dag.prepare,
        options=options, clock=clock, monitored=monitored,
    )
    result = execute_dag(dag, ctx)
    if not result.completed:  # pragma: no cover - safe workflow invariant
        raise RuntimeError(f"latency workflow did not complete: {result.alert}")

    breakdown = clock.breakdown()
    rabit_seconds = sum(v for k, v in breakdown.items() if k.startswith("rabit"))
    name = "unmonitored"
    if monitored:
        name = "rabit+es" if use_es else "rabit"
        if use_es and bypass_gui:
            name = "rabit+es-headless"
    return LatencyReport(
        configuration=name,
        commands=len(ctx.trace),
        experiment_seconds=breakdown.get("experiment", 0.0),
        rabit_seconds=rabit_seconds,
    )


def measure_workflow_latency(compiled: bool = True) -> Dict[str, LatencyReport]:
    """Run the experiment in all four configurations.

    Returns reports keyed by configuration: ``unmonitored``, ``rabit``
    (the 1.5 % row), ``rabit+es`` (the 112 % row), and
    ``rabit+es-headless`` (the paper's planned GUI-bypass deployment).
    ``compiled=False`` routes the monitored runs through the interpreted
    full-rulebase scan instead of the compiled decision lists; the
    virtual-clock figures are identical either way (dispatch affects
    host CPU time, never charged virtual time), which the differential
    suite pins.
    """
    return {
        report.configuration: report
        for report in (
            _run_once(monitored=False, use_es=False),
            _run_once(monitored=True, use_es=False, compiled=compiled),
            _run_once(monitored=True, use_es=True, compiled=compiled),
            _run_once(monitored=True, use_es=True, bypass_gui=True, compiled=compiled),
        )
    }
