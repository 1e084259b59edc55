"""Percentiles and process readings for the guard benchmark."""

from __future__ import annotations

import math
import os
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile *q* (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(q, value)`` for the highest percentile with >= 10 samples beyond it.

    ``None`` when even the median has fewer than ten samples ranked above
    it.
    """
    n = len(values)
    for q in TAIL_CANDIDATES:
        if n - max(1, math.ceil(q / 100.0 * n)) >= 10:
            return q, percentile(values, q)
    return None


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of process *pid*, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process *pid*, in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
