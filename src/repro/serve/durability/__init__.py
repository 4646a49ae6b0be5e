"""Durable catalog state: WAL, snapshots, recovery, and torture.

The multi-process serving layer (:mod:`repro.serve.proc`) survives
*worker* death by replaying per-shard catalog journals into fresh
incarnations — but until this package, those journals lived only in
supervisor memory.  A supervisor crash lost every view a session had
built.

This package closes that hole with a classic three-piece design:

* :mod:`~repro.serve.durability.records` — the on-disk record format:
  length-prefixed, CRC32-checksummed frames, one per catalog mutation.
* :mod:`~repro.serve.durability.wal` — :class:`WalWriter`: inline
  append + fsync *before* a mutation's response is released, segment
  rotation, and periodic snapshot compaction (atomic tmp+fsync+replace
  of a full catalog image, then truncation of superseded segments).
* :mod:`~repro.serve.durability.recovery` — :func:`recover_state`:
  newest valid snapshot + ordered WAL replay + torn-tail truncation,
  yielding the journals and routing map the supervisor seeds itself
  from at startup.

The contract — **acked iff durable** — is proven, not assumed:
:mod:`~repro.serve.durability.torture` SIGKILLs the whole serving
process at deterministic crash points inside the WAL and asserts the
recovered catalog is byte-identical to the acknowledged prefix.
"""

from __future__ import annotations

from repro.serve.durability.records import (
    HEADER,
    WAL_MAGIC,
    WAL_VERSION,
    WalRecord,
    encode_record,
    scan_segment,
)
from repro.serve.durability.recovery import (
    RecoveredState,
    compact_journal,
    recover_state,
)
from repro.serve.durability.wal import (
    ACK_LOG_ENV,
    SEGMENT_PREFIX,
    SNAPSHOT_PREFIX,
    WalWriter,
    segment_path,
    snapshot_path,
)

__all__ = [
    "ACK_LOG_ENV",
    "HEADER",
    "SEGMENT_PREFIX",
    "SNAPSHOT_PREFIX",
    "WAL_MAGIC",
    "WAL_VERSION",
    "RecoveredState",
    "WalRecord",
    "WalWriter",
    "compact_journal",
    "encode_record",
    "recover_state",
    "scan_segment",
    "segment_path",
    "snapshot_path",
]
