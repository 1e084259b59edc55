"""``repro.obs`` — the runtime observability layer.

The paper deploys RABIT behind the RATracer tracing framework; the
reproduction's equivalent is this zero-dependency subsystem: span-based
tracing with virtual- and wall-clock timestamps, a metrics registry
(counters, gauges, fixed-bucket histograms) exportable as Prometheus text
or a JSON snapshot, and a ring-buffered in-process span collector with a
JSONL exporter.

Everything hangs off the process-wide :data:`OBS` singleton, which is
**disabled by default**: every instrumentation site in the hot path
guards on ``OBS.enabled`` (a single attribute read), so the §II-C latency
reproduction and the collision-throughput gate are unaffected unless a
caller opts in via ``OBS.enable()`` (the ``python -m repro metrics``
subcommand does).

This package imports nothing from the rest of :mod:`repro` — the core
modules import *it*, never the reverse.
"""

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.runtime import OBS, Observability
from repro.obs.spans import Span, SpanCollector

__all__ = [
    "OBS",
    "Observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanCollector",
]
