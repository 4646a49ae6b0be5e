"""The write-ahead log: group commit, segment rotation, compaction.

:class:`WalWriter` is the durability half of the catalog contract: a
catalog-mutating statement's response is *released to the client only
after* its WAL record is fsync'd.  :meth:`commit` blocks until that
has happened and returns the record's global sequence number.

Two commit modes share one flush path:

* ``fsync_interval_ms == 0`` (the default) — every commit appends and
  fsyncs inline: one mutation, one fsync, maximal determinism.
* ``fsync_interval_ms > 0`` — **group commit**: commits queue their
  records and block on an event; a flusher thread wakes every
  interval, writes the whole pending batch, issues *one* fsync, and
  releases every waiter at once.  Catalog mutations are rare relative
  to reads, but a burst (a session replay, a migration script) pays
  one disk flush per interval instead of one per statement.

The log is a sequence of *segments* (``wal-<n>.log``); when the active
segment passes ``segment_max_bytes`` it is sealed (flushed, fsync'd,
closed) and a fresh one opened.  Every ``snapshot_every`` records the
writer asks its ``snapshot_cb`` for a full catalog image (the
supervisor hands over copies of its in-memory journals, which it
compacts as each mutation lands, not in the callback), seals the
active segment, writes ``snapshot-<seq>.json`` via the atomic
tmp + fsync + ``os.replace`` dance, and deletes the snapshots and
sealed segments the new image supersedes — bounding recovery time and
disk growth without ever rewriting a log in place.

Crash points, for the torture harness (all four consult the
:class:`~repro.robustness.faults.FaultInjector` narrowed by the
triggering sequence number, e.g. ``wal.pre_fsync:5=crash*1``; a
planned error at any of them SIGKILLs *this whole process*, because
the property under test is whole-supervisor death, not a tidy
exception):

``wal.pre_fsync``
    Before the batch is written.  The injected death first writes a
    *torn prefix* of the batch's first record — simulating the kernel
    having pushed half a ``write`` to disk — so recovery must truncate
    a checksum-failing tail, and the whole unacknowledged batch must
    vanish.
``wal.post_fsync_pre_ack``
    After fsync (and after the torture ack-log append — see below),
    before waiters are released.  The batch is durable but no client
    saw an acknowledgment: recovery must resurrect it, byte-identical.
``wal.segment_rotate``
    After the old segment is sealed and the new one opened, before the
    batch lands in it.  Recovery must stitch segments in order and
    tolerate a trailing empty segment.
``wal.mid_compaction``
    Between the snapshot temp file's fsync and its ``os.replace``.
    Recovery must ignore the temp file and rebuild from the previous
    snapshot plus the not-yet-deleted segments.

The commit point is the **fsync**, not the response: when the
``REPRO_WAL_ACK_LOG`` environment variable names a file, every record
is appended there (``os.write`` + ``os.fsync`` on an ``O_APPEND`` fd)
*after* the WAL fsync and *before* ``wal.post_fsync_pre_ack`` can
fire.  That file is the torture harness's ground truth: at every
injected crash point the set of acked mutations equals the set of
durable ones, so "recovered == acked prefix" is assertable exactly.

A WAL failure (``OSError`` from a write or fsync) raises
:class:`~repro.errors.DurabilityError` out of :meth:`commit` and is
never absorbed: a server that cannot persist an ack must stop acking
(fail-stop), not hand out promises a crash would revoke.
"""

from __future__ import annotations

import json
import os
import signal
import threading
from typing import Callable, Dict, List, Optional

from repro.errors import DurabilityError
from repro.obs.metrics import MetricsRegistry, registry
from repro.robustness.faults import FaultInjector
from repro.serve.durability.records import encode_record

__all__ = ["WalWriter", "SEGMENT_PREFIX", "SNAPSHOT_PREFIX",
           "ACK_LOG_ENV", "segment_path", "snapshot_path"]

SEGMENT_PREFIX = "wal-"
SNAPSHOT_PREFIX = "snapshot-"
ACK_LOG_ENV = "REPRO_WAL_ACK_LOG"


def segment_path(state_dir: str, ordinal: int) -> str:
    """Path of WAL segment ``ordinal`` inside ``state_dir``."""
    return os.path.join(state_dir, f"{SEGMENT_PREFIX}{ordinal:08d}.log")


def snapshot_path(state_dir: str, seq: int) -> str:
    """Path of the snapshot covering everything up to ``seq``."""
    return os.path.join(state_dir, f"{SNAPSHOT_PREFIX}{seq:012d}.json")


def _fsync_dir(path: str) -> None:
    """Make a create/rename in ``path`` itself durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class _Pending:
    """One committed-but-not-yet-durable record awaiting its fsync."""

    __slots__ = ("seq", "shard", "sql", "session", "data", "event",
                 "error", "on_durable")

    def __init__(
        self,
        seq: int,
        shard: int,
        sql: str,
        session: str,
        on_durable: Optional[Callable[[], None]] = None,
    ):
        self.seq = seq
        self.shard = shard
        self.sql = sql
        self.session = session
        self.data = encode_record(seq, shard, sql, session)
        self.event = threading.Event()
        self.error: Optional[BaseException] = None
        self.on_durable = on_durable


class WalWriter:
    """Appends checksummed records; blocks acks until they are durable.

    ``snapshot_cb`` (when given) must return the full catalog image as
    ``{"shards": int, "view_shard": {name: shard}, "journals":
    {shard: [[sql, session], ...]}}`` — the supervisor copies its
    already-compacted journals under its own lock and does no
    compaction inside the callback.  The writer never takes the
    supervisor's lock while the supervisor holds the writer's: commits
    are issued *outside* the supervisor lock, so the only cross-lock
    edge is writer -> supervisor (inside the snapshot callback), which
    cannot deadlock.
    """

    def __init__(
        self,
        state_dir: str,
        *,
        start_seq: int = 0,
        start_ordinal: int = 0,
        fsync_interval_ms: float = 0.0,
        segment_max_bytes: int = 1 << 20,
        snapshot_every: int = 64,
        snapshot_cb: Optional[Callable[[], Dict[str, object]]] = None,
        faults: Optional[FaultInjector] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if fsync_interval_ms < 0:
            raise ValueError(
                f"fsync_interval_ms must be >= 0, got {fsync_interval_ms}"
            )
        if segment_max_bytes < 1:
            raise ValueError(
                f"segment_max_bytes must be >= 1, got {segment_max_bytes}"
            )
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0, got {snapshot_every}"
            )
        self.state_dir = state_dir
        self.fsync_interval_s = fsync_interval_ms / 1e3
        self.segment_max_bytes = segment_max_bytes
        self.snapshot_every = snapshot_every
        self._snapshot_cb = snapshot_cb
        self._faults = faults
        self._metrics = metrics if metrics is not None else registry()
        self._lock = threading.Lock()
        self._last_seq = start_seq
        self._last_snapshot_seq = start_seq
        self._records_since_snapshot = 0
        self._pending: List[_Pending] = []
        self._closed = False
        os.makedirs(state_dir, exist_ok=True)
        self._ordinal = start_ordinal
        self._fh = open(segment_path(state_dir, start_ordinal), "ab")
        self._segment_bytes = self._fh.tell()
        _fsync_dir(state_dir)
        ack_path = os.environ.get(ACK_LOG_ENV)
        self._ack_fd = (
            os.open(ack_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                    0o644)
            if ack_path else None
        )
        self._flusher: Optional[threading.Thread] = None
        self._wake = threading.Event()
        if self.fsync_interval_s > 0:
            self._flusher = threading.Thread(
                target=self._flush_loop, name="repro-wal-flusher",
                daemon=True,
            )
            self._flusher.start()

    # -- the commit path ---------------------------------------------------

    def commit(
        self,
        shard: int,
        sql: str,
        session: str,
        on_durable: Optional[Callable[[], None]] = None,
    ) -> int:
        """Append one mutation and block until it is fsync-durable.

        Returns the record's sequence number.  Raises
        :class:`~repro.errors.DurabilityError` if the append or fsync
        failed — in which case the caller must not release an ack.

        ``on_durable`` (when given) runs under the WAL lock right after
        the record's fsync and *before* any snapshot compaction this
        commit triggers — it is the one window where the caller can
        fold the now-durable mutation into the state ``snapshot_cb``
        images, so a snapshot whose ``last_seq`` covers this record
        always contains it.  It must be cheap and must not call back
        into the WAL.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError("WAL is closed")
            entry = _Pending(
                self._last_seq + 1, shard, sql, session,
                on_durable=on_durable,
            )
            self._last_seq = entry.seq
            if self.fsync_interval_s <= 0:
                self._flush_locked([entry])
                return entry.seq
            self._pending.append(entry)
        self._wake.set()
        entry.event.wait()
        if entry.error is not None:
            raise DurabilityError(
                f"WAL append failed for seq {entry.seq}: {entry.error}"
            ) from entry.error
        return entry.seq

    def _flush_loop(self) -> None:
        while True:
            self._wake.wait(timeout=self.fsync_interval_s)
            self._wake.clear()
            with self._lock:
                batch = self._pending
                self._pending = []
                closed = self._closed
                if batch:
                    try:
                        self._flush_locked(batch)
                    # a failed flush is recorded on every waiter (each
                    # re-raises DurabilityError from commit()); the
                    # flusher survives so later commits fail loudly
                    # too instead of hanging
                    # repro-lint: ignore[RL004]
                    except Exception as exc:
                        for entry in batch:
                            entry.error = exc
                            entry.event.set()
            if closed:
                return

    def _flush_locked(self, batch: List[_Pending]) -> None:
        """Write + fsync one batch; call with ``self._lock`` held."""
        if self._segment_bytes >= self.segment_max_bytes:
            self._rotate_locked(batch[0].seq)
        for entry in batch:
            self._fire("wal.pre_fsync", entry.seq, torn_prefix_of=batch[0])
        try:
            for entry in batch:
                self._fh.write(entry.data)
                # repro-lint: ignore[RL007] — caller holds self._lock
                self._segment_bytes += len(entry.data)
                self._metrics.counter("wal.appends").inc()
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as exc:
            raise DurabilityError(f"WAL write failed: {exc}") from exc
        self._metrics.counter("wal.fsyncs").inc()
        self._metrics.counter("wal.batched_acks").inc(len(batch))
        self._ack_log_locked(batch)
        for entry in batch:
            self._fire("wal.post_fsync_pre_ack", entry.seq)
        for entry in batch:
            # the durable hook runs before the waiter is released AND
            # before the snapshot check below: whatever state the
            # snapshot images has absorbed every record it claims
            if entry.on_durable is not None:
                entry.on_durable()
        for entry in batch:
            entry.event.set()
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._records_since_snapshot += len(batch)
        if (
            self.snapshot_every
            and self._snapshot_cb is not None
            and self._records_since_snapshot >= self.snapshot_every
        ):
            self._snapshot_locked()

    def _ack_log_locked(self, batch: List[_Pending]) -> None:
        """Durably record the batch as *acknowledged* (torture only).

        Written after the WAL fsync and before
        ``wal.post_fsync_pre_ack`` can fire, so the ack log and the
        durable WAL agree at every injected crash point — the file is
        the harness's definition of "the client was promised this".
        """
        if self._ack_fd is None:
            return
        lines = "".join(
            json.dumps(
                {"seq": e.seq, "shard": e.shard, "sql": e.sql,
                 "session": e.session},
                sort_keys=True,
            ) + "\n"
            for e in batch
        )
        os.write(self._ack_fd, lines.encode("utf-8"))
        os.fsync(self._ack_fd)

    # -- rotation and compaction -------------------------------------------

    def _rotate_locked(self, seq: int) -> None:
        """Seal the active segment, open the next one (lock held)."""
        self._seal_locked()
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._ordinal += 1
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._fh = open(segment_path(self.state_dir, self._ordinal), "ab")
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._segment_bytes = 0
        _fsync_dir(self.state_dir)
        self._metrics.counter("wal.segments_rotated").inc()
        self._fire("wal.segment_rotate", seq)

    def _seal_locked(self) -> None:
        try:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
        except OSError as exc:
            raise DurabilityError(
                f"WAL segment seal failed: {exc}"
            ) from exc

    def _snapshot_locked(self) -> None:
        """Write a catalog snapshot; truncate superseded history."""
        image = self._snapshot_cb()  # takes the supervisor lock
        seq = self._last_seq
        # seal + rotate first: every sealed segment now holds only
        # records the snapshot covers, so deleting them cannot lose a
        # record the snapshot missed
        self._rotate_locked(seq)
        payload = {
            "kind": "repro-wal-snapshot",
            "version": 1,
            "last_seq": seq,
            "shards": int(image.get("shards") or 0),
            "view_shard": image.get("view_shard") or {},
            "journals": {
                str(k): [list(e) for e in v]
                for k, v in (image.get("journals") or {}).items()
            },
        }
        final = snapshot_path(self.state_dir, seq)
        tmp = os.path.join(
            self.state_dir,
            f".{os.path.basename(final)}.tmp.{os.getpid()}",
        )
        # the tmp+fsync+replace dance is inlined (not atomic_write_text)
        # because the mid-compaction crash point must fire *between*
        # the tmp fsync and the rename — exactly the window the atomic
        # helper exists to make unobservable
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
                fh.write("\n")
                fh.flush()
                os.fsync(fh.fileno())
            self._fire("wal.mid_compaction", seq)
            os.replace(tmp, final)
            _fsync_dir(self.state_dir)
        except OSError as exc:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise DurabilityError(
                f"snapshot write failed: {exc}"
            ) from exc
        self._metrics.counter("wal.snapshots").inc()
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._last_snapshot_seq = seq
        # repro-lint: ignore[RL007] — caller holds self._lock
        self._records_since_snapshot = 0
        self._truncate_superseded_locked(seq)

    def _truncate_superseded_locked(self, snap_seq: int) -> None:
        """Delete snapshots and sealed segments the new image covers."""
        for name in sorted(os.listdir(self.state_dir)):
            path = os.path.join(self.state_dir, name)
            if name.startswith(SNAPSHOT_PREFIX) and name.endswith(".json"):
                if path != snapshot_path(self.state_dir, snap_seq):
                    os.unlink(path)
            elif name.startswith(SEGMENT_PREFIX) and name.endswith(".log"):
                ordinal = _segment_ordinal(name)
                if ordinal is not None and ordinal < self._ordinal:
                    os.unlink(path)
        _fsync_dir(self.state_dir)

    # -- crash points ------------------------------------------------------

    def _fire(
        self,
        site: str,
        seq: int,
        torn_prefix_of: Optional[_Pending] = None,
    ) -> None:
        """Consult one ``wal.*`` fault site; a planned fault is death.

        The sites exist to *kill this process mid-dance* — the torture
        harness's whole-supervisor SIGKILL — so any planned error here
        becomes ``SIGKILL`` to our own pid: no handlers, no cleanup,
        no flushes, exactly like ``kill -9`` from outside.  For
        ``wal.pre_fsync``, a torn prefix of the batch's first record
        is written (and pushed to the OS) first, simulating the
        half-a-``write`` the page cache would have kept from a real
        mid-append crash.
        """
        if self._faults is None:
            return
        try:
            self._faults.fire(site, str(seq))
        # any planned exception at a wal.* site means "die here";
        # converting it to SIGKILL *is* the handling (and the process
        # ends, so nothing is swallowed)
        # repro-lint: ignore[RL004]
        except Exception:
            if torn_prefix_of is not None:
                try:
                    self._fh.write(
                        torn_prefix_of.data[:len(torn_prefix_of.data) // 2]
                    )
                    self._fh.flush()
                except OSError:
                    pass  # dying anyway; the torn write is best-effort
            os.kill(os.getpid(), signal.SIGKILL)

    # -- lifecycle / introspection -----------------------------------------

    def close(self, final_snapshot: bool = True) -> None:
        """Flush everything, optionally snapshot, seal the segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batch = self._pending
            self._pending = []
            if batch:
                try:
                    self._flush_locked(batch)
                # record-and-release on every waiter; see _flush_loop
                # repro-lint: ignore[RL004]
                except Exception as exc:
                    for entry in batch:
                        entry.error = exc
                        entry.event.set()
            if (
                final_snapshot
                and self._snapshot_cb is not None
                and self._records_since_snapshot > 0
            ):
                self._snapshot_locked()
            self._seal_locked()
            if self._ack_fd is not None:
                os.close(self._ack_fd)
                self._ack_fd = None
        self._wake.set()
        if (
            self._flusher is not None
            and self._flusher is not threading.current_thread()
        ):
            self._flusher.join(timeout=2.0)

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest *assigned* record."""
        with self._lock:
            return self._last_seq

    def stats(self) -> Dict[str, object]:
        """A point-in-time WAL summary for the ops surface."""
        with self._lock:
            return {
                "last_seq": self._last_seq,
                "segment": self._ordinal,
                "segment_bytes": self._segment_bytes,
                "snapshot_seq": self._last_snapshot_seq,
                "records_since_snapshot": self._records_since_snapshot,
                "fsync_interval_ms": self.fsync_interval_s * 1e3,
            }


def _segment_ordinal(name: str) -> Optional[int]:
    """``wal-00000003.log`` -> 3 (``None`` for foreign file names)."""
    stem = name[len(SEGMENT_PREFIX):-len(".log")]
    try:
        return int(stem)
    except ValueError:
        return None
