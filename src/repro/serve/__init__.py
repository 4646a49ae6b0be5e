"""Concurrent serving core: sessions, admission control, breakers.

DBExplorer answers one statement at a time; this package turns it into
a multi-session server without touching the algorithms underneath:

* :class:`ViewRegistry` — the named CAD View catalog as copy-on-write
  snapshots, so concurrent ``CREATE CADVIEW``/``DROP`` never corrupt
  in-flight readers;
* :class:`CircuitBreaker` — a per-dataset closed/open/half-open state
  machine that short-circuits builds to the degradation ladder while a
  dataset is misbehaving, instead of burning pool threads on it;
* :class:`SessionExecutor` — a thread-pool executor with a *bounded*
  admission queue (explicit :class:`~repro.errors.OverloadedError`
  with a Retry-After hint, never unbounded queuing), a per-query
  watchdog that trips a :class:`~repro.robustness.CancelToken` checked
  at the existing budget checkpoints, and retry-with-backoff-and-jitter
  for transient faults;
* :mod:`repro.serve.stress` — dependency-aware concurrent replay of a
  captured workload log and :func:`run_stress`, the one stress driver
  behind ``repro replay --concurrency N`` and ``repro serve --stress``
  (with or without ``--procs``): verification against a sequential
  replay, the run gates and the report;
* :mod:`repro.serve.durability` — the durable catalog: a checksummed
  write-ahead log fsync'd before acks, snapshot compaction, and
  whole-process crash recovery (``serve --procs N --state-dir DIR``),
  proven by the kill -9 torture harness (``--torture N``).
"""

from repro.serve.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.serve.executor import (
    ServeConfig,
    SessionExecutor,
    StatementTicket,
)
from repro.serve.registry import ViewRegistry
from repro.serve.stress import (
    ConcurrentReplayReport,
    StatementResult,
    chaos_plan,
    deterministic_config,
    replay_concurrent,
    run_stress,
    statement_scopes,
    workload_statements,
)

__all__ = [
    "ViewRegistry",
    "BreakerConfig", "BreakerState", "CircuitBreaker",
    "ServeConfig", "SessionExecutor", "StatementTicket",
    "ConcurrentReplayReport", "StatementResult", "chaos_plan",
    "deterministic_config", "replay_concurrent", "run_stress",
    "statement_scopes", "workload_statements",
]
