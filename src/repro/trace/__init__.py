"""Deterministic run traces: record, persist, replay, compare.

``repro.trace`` turns a guarded run into a canonical, schema-versioned
event stream — commands with arguments, rule verdicts (including which
rule fired and whether the verdict came from the cache), trajectory-sweep
outcomes, state deltas, virtual-clock timestamps, and observability span
ids — and replays any persisted trace by re-executing the same workload
under the virtual clock, asserting byte-identical agreement via the
shared canonical-JSON witness.  Each event is a projection of the
interceptor's :class:`~repro.core.interceptor.CommandRecord`; nothing on
the guard path reports into this package.

The package re-exports nothing, so importing the one module a caller
needs (the guard service needs only :mod:`repro.trace.canon`) loads no
other.  The modules:

- :mod:`repro.trace.canon` — the canonical JSON every equality witness
  uses;
- :mod:`repro.trace.recorder` — :class:`~repro.trace.recorder.RunTrace`,
  its JSONL persistence, and the record-to-event projection;
- :mod:`repro.trace.workloads` — the workload registry and
  :func:`~repro.trace.workloads.record_workload`;
- :mod:`repro.trace.replay` — :func:`~repro.trace.replay.replay_trace`,
  which re-executes a trace and reports the first divergence, if any;
- :mod:`repro.trace.schema` — schema versions and their upgrades;
- ``python -m repro record`` / ``python -m repro replay`` — the CLI.
"""
