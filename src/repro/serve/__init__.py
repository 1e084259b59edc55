"""Guard-as-a-service: the asyncio multi-session front-end.

RABIT so far guards one lab session per process.  The paper's
intervention tool, though, is meant to sit in front of fleets of
self-driving-lab arms — one shared guard multiplexed across many remote
users.  :mod:`repro.serve` is that front-end:

- :class:`~repro.serve.server.GuardServer` — a long-running asyncio
  service hosting many concurrent :class:`~repro.serve.session.GuardSession`
  instances in one process.  Each session owns its own
  :class:`~repro.core.state.LabState`, rule-verdict cache, and virtual
  clock; all sessions of a tenant share one
  :class:`~repro.core.rulebase.RuleBase` instance and therefore one
  memoized compiled dispatch snapshot.
- :class:`~repro.serve.batcher.SweepBatcher` — collision sweeps from all
  sessions drain through one queue and execute as cross-session batches
  on the stacked geometry kernels.  Every command gets the full sweep
  at any load; the session cap is the only load bound, and a full
  service refuses new sessions with a retryable ``session-limit``.
- :class:`~repro.serve.client.ServeClient` — a thin asyncio client
  speaking newline-delimited canonical JSON, with
  :mod:`repro.serve.retry` resilience on connect.
- :mod:`repro.serve.journal` — the per-session verdict journal both the
  service and the in-process reference path emit; the differential suite
  pins the two byte-identical.
- :mod:`repro.serve.shard` — the multi-process scale-out: a supervisor
  forks N full worker services behind a deterministic session router,
  with merged cross-worker stats and a scrapeable ``/metrics`` endpoint.

Start one with ``python -m repro serve --socket /tmp/rabit.sock``
(add ``--shard-workers N`` to shard it).
"""

from repro.serve.batcher import SweepBatcher
from repro.serve.client import (
    ServeClient,
    ServeConnectionLost,
    ServeError,
    ServeSessionLost,
    ServeUnavailableError,
)
from repro.serve.retry import RetryPolicy, retrying
from repro.serve.server import GuardServer, SessionRejected
from repro.serve.session import GuardSession
from repro.serve.shard import ShardConfig, ShardService, ShardUnsupportedError

__all__ = [
    "GuardServer",
    "GuardSession",
    "ServeClient",
    "ServeConnectionLost",
    "ServeError",
    "ServeSessionLost",
    "ServeUnavailableError",
    "SessionRejected",
    "ShardConfig",
    "ShardService",
    "ShardUnsupportedError",
    "SweepBatcher",
    "RetryPolicy",
    "retrying",
]
