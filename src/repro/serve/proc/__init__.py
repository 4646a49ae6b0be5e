"""Supervised multi-process serving: worker shards behind the ticket API.

``repro.serve.proc`` moves fault isolation from the thread to the
process boundary.  A :class:`~repro.serve.proc.supervisor.ProcSupervisor`
runs one worker subprocess per dataset shard (spawn context), speaks
the length-prefixed JSON frame protocol of
:mod:`~repro.serve.proc.protocol` with them, and presents the exact
:class:`~repro.serve.executor.SessionExecutor` ticket surface to
callers — so the replay harness, the stress driver and the CLI use
either serving mode interchangeably.

The three pieces:

:mod:`~repro.serve.proc.protocol`
    The wire format: framed JSON over a ``multiprocessing`` pipe, with
    torn-frame detection.
:mod:`~repro.serve.proc.worker`
    The subprocess entry point: builds its shard, replays the catalog
    journal, heartbeats, runs statements through the thread executor's
    own retry loop (under :class:`WorkerSpec`'s retry policy), and
    hosts the ``proc.*`` fault sites.
:mod:`~repro.serve.proc.supervisor`
    The parent: shard routing, heartbeat monitoring, crash/hang/
    pipe-drop recovery with exponential restart backoff,
    incarnation-keyed circuit breakers, and graceful drain.

With ``state_dir`` set on :class:`ProcServeConfig`, the supervisor
additionally writes every catalog mutation through the durable WAL of
:mod:`repro.serve.durability` before its response is released, and
recovers the catalog from disk at startup — surviving supervisor
death, not just worker death.

This package is the only place in the repository allowed to construct
``multiprocessing.Process`` directly (repro-lint rule RL008).
"""

from repro.serve.proc.protocol import (
    FRAME_TELEMETRY,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.serve.proc.supervisor import (
    ProcServeConfig,
    ProcSupervisor,
    RemoteStatementError,
)
from repro.serve.proc.worker import (
    PIPE_DROP_EXIT,
    WORKER_CRASH_EXIT,
    WorkerSpec,
)

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_TELEMETRY",
    "ProtocolError",
    "ProcServeConfig",
    "ProcSupervisor",
    "RemoteStatementError",
    "WorkerSpec",
    "WORKER_CRASH_EXIT",
    "PIPE_DROP_EXIT",
]
