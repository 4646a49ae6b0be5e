"""Startup recovery: newest snapshot + ordered WAL replay + torn tail.

:func:`recover_state` turns a ``--state-dir`` back into the supervisor
state a previous process carried in memory:

1. **Snapshot** — load the newest *valid* ``snapshot-<seq>.json``
   (an unreadable newest snapshot falls back to its predecessor with a
   warning; orphaned ``.tmp`` files from a crash mid-compaction are
   deleted).  The snapshot supplies the per-shard catalog journals,
   the view->shard routing map, and ``last_seq``.
2. **WAL replay** — scan every remaining ``wal-<n>.log`` segment in
   ordinal order and apply each record with ``seq > last_seq`` in
   strictly continuous sequence: the journal entry is appended to its
   shard, and ``CREATE``/``DROP`` statements update the routing map.
   Records a snapshot already covers (left behind when a crash landed
   between the snapshot rename and the segment deletion) are skipped.
3. **Torn tail** — the first unreadable record *at the end of the
   newest data-bearing segment* is the expected signature of a crash
   mid-append: it is truncated (with a loud warning), never replayed.
   An unreadable record with intact records *after* it — in the same
   scan or a later segment — is corruption of acknowledged history,
   and recovery refuses with :class:`~repro.errors.RecoveryError`
   rather than silently dropping acked mutations.  A sequence gap
   (``seq`` jumps) is refused the same way.

:class:`CatalogJournal` is a shard's catalog journal, compacted as
each mutation lands: ``DROP v`` removes ``v``'s entries (and itself),
a re-``CREATE`` supersedes them.  Replaying a compacted journal builds
the catalog the full history builds — which is precisely what makes
snapshot truncation safe.  Recovery returns the raw WAL tail.
"""

from __future__ import annotations

import io
import json
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RecoveryError
from repro.query.ast import catalog_write
from repro.query.parser import parse
from repro.serve.durability.records import (
    WAL_MAGIC,
    WalRecord,
    scan_segment,
)
from repro.serve.durability.wal import (
    SEGMENT_PREFIX,
    SNAPSHOT_PREFIX,
    _segment_ordinal,
)

__all__ = ["CatalogJournal", "RecoveredState", "compact_journal",
           "journal_write", "recover_state", "route_write"]

_TMP_RE = re.compile(r"^\..*\.tmp\.\d+$")


@dataclass
class RecoveredState:
    """Everything a supervisor needs to resume where a crash left off."""

    journals: Dict[int, List[Tuple[str, str]]] = field(
        default_factory=dict
    )
    view_shard: Dict[str, int] = field(default_factory=dict)
    last_seq: int = 0
    snapshot_seq: int = 0
    snapshot_path: Optional[str] = None
    shards: Optional[int] = None       # shard count the state was written with
    segments: int = 0                  # segment files scanned
    records_replayed: int = 0          # WAL records applied past the snapshot
    records_skipped: int = 0           # records a snapshot already covered
    next_ordinal: int = 0              # where a resuming writer starts
    torn_tail: Optional[Dict[str, object]] = None
    warnings: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready summary (the ``repro recover --json`` payload)."""
        return {
            "last_seq": self.last_seq,
            "snapshot_seq": self.snapshot_seq,
            "snapshot": self.snapshot_path,
            "shards": self.shards,
            "segments": self.segments,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "torn_tail": self.torn_tail,
            "views": {
                name: shard
                for name, shard in sorted(self.view_shard.items())
            },
            "journal_lengths": {
                str(shard): len(entries)
                for shard, entries in sorted(self.journals.items())
            },
            "warnings": list(self.warnings),
        }


def recover_state(
    state_dir: str,
    shards: Optional[int] = None,
    truncate: bool = True,
) -> RecoveredState:
    """Rebuild catalog state from a ``--state-dir``.

    ``shards`` (when given) is validated against the shard count the
    state was written with — journal entries are routed by shard
    index, so resuming under a different ``--procs`` would scatter the
    catalog; recovery refuses instead of guessing a re-route.

    ``truncate=False`` makes the pass read-only (the ``repro recover``
    inspector): a torn tail is *reported* but the segment file is left
    byte-for-byte as found, and orphaned temp files stay.
    """
    state = RecoveredState()
    if not os.path.isdir(state_dir):
        raise RecoveryError(f"state dir {state_dir!r} does not exist")
    _clean_tmp_files(state_dir, state, truncate)
    _load_snapshot(state_dir, state, shards)
    segments = _list_segments(state_dir)
    state.segments = len(segments)
    if segments:
        # a resuming writer starts a *fresh* segment: never append
        # after a (possibly just-truncated) tail
        last = _segment_ordinal(os.path.basename(segments[-1]))
        state.next_ordinal = (last if last is not None else -1) + 1

    scanned = []
    for path in segments:
        with open(path, "rb") as fh:
            records, bad_offset, reason = scan_segment(fh)
        scanned.append((path, records, bad_offset, reason))

    # an unreadable record is a *tail* only if nothing intact follows
    # it; intact records after damage mean acked history is gone, and
    # that is not recoverable-by-truncation
    last_data = max(
        (i for i, (_, recs, _, _) in enumerate(scanned) if recs),
        default=-1,
    )
    for i, (path, records, bad_offset, reason) in enumerate(scanned):
        if bad_offset is None:
            continue
        if i < last_data or (i == last_data and _has_later_data(
            scanned, i, bad_offset
        )):
            raise RecoveryError(
                f"unreadable WAL record mid-history in "
                f"{os.path.basename(path)} at offset {bad_offset} "
                f"({reason}); acknowledged mutations after it would "
                f"be lost — refusing to recover"
            )
        state.torn_tail = {
            "segment": os.path.basename(path),
            "offset": bad_offset,
            "reason": reason,
            "truncated": bool(truncate),
        }
        state.warnings.append(
            f"torn WAL tail in {os.path.basename(path)} at offset "
            f"{bad_offset} ({reason}): the unacknowledged tail is "
            + ("truncated" if truncate else "ignored (read-only pass)")
        )
        if truncate:
            _truncate_segment(path, bad_offset)

    applied = state.snapshot_seq
    for path, records, _, _ in scanned:
        for record in records:
            if record.seq <= state.snapshot_seq:
                state.records_skipped += 1
                continue
            if record.seq != applied + 1:
                raise RecoveryError(
                    f"WAL sequence gap: expected seq {applied + 1}, "
                    f"found {record.seq} in {os.path.basename(path)} "
                    f"at offset {record.offset}"
                )
            _apply_record(state, record)
            applied = record.seq
            state.records_replayed += 1
    state.last_seq = applied
    return state


class CatalogJournal:
    """One shard's catalog journal, compacted as each mutation lands.

    Each kept entry is held with the view it writes, so an append never
    re-parses the journal; ``entries`` given here are parsed once each.
    """

    def __init__(self, entries: Iterable[Tuple[str, str]] = ()):
        self._kept: List[Tuple[Tuple[str, str], Optional[str]]] = []
        for sql, session in entries:
            self.append(sql, session, journal_write(sql))

    @property
    def entries(self) -> List[Tuple[str, str]]:
        """A copy of the kept ``(sql, session)`` list: what a fresh
        worker replays and a snapshot stores."""
        return [entry for entry, _ in self._kept]

    def append(
        self, sql: str, session: str, write: Optional[Tuple[str, str]]
    ) -> None:
        """Fold in one acked mutation whose catalog write is ``write``:
        ``DROP v`` removes ``v``'s entries and is not kept, ``CREATE v``
        replaces them, ``REORDER`` appends, and an entry that does not
        parse (``write`` None) is conservatively kept."""
        view = write[1] if write is not None else None
        if write is not None and write[0] in ("create", "drop"):
            self._kept = [kept for kept in self._kept if kept[1] != view]
        if write is None or write[0] != "drop":
            self._kept.append(((sql, session), view))


def compact_journal(
    entries: List[Tuple[str, str]],
) -> List[Tuple[str, str]]:
    """Semantically compact one shard's catalog journal: the entries
    a :class:`CatalogJournal` keeps after folding ``entries`` in."""
    return CatalogJournal(entries).entries


def journal_write(sql: str) -> Optional[Tuple[str, str]]:
    """:func:`~repro.query.ast.catalog_write` of one journal entry's
    statement (``None`` if it does not parse)."""
    try:
        stmt = parse(sql)
    # the None return *is* the record of the fault: the caller
    # conservatively keeps the statement verbatim
    # repro-lint: ignore[RL004]
    except Exception:
        return None
    return catalog_write(stmt)


def route_write(
    view_shard: Dict[str, int],
    write: Optional[Tuple[str, str]],
    shard: int,
) -> None:
    """Move a view -> shard routing map by one catalog write on
    ``shard``: a ``CREATE`` maps its view there, a ``DROP`` unmaps it."""
    if write is not None and write[0] == "create":
        view_shard[write[1]] = shard
    elif write is not None and write[0] == "drop":
        view_shard.pop(write[1], None)


# -- internals -------------------------------------------------------------


def _clean_tmp_files(
    state_dir: str, state: RecoveredState, truncate: bool
) -> None:
    for name in sorted(os.listdir(state_dir)):
        if _TMP_RE.match(name):
            state.warnings.append(
                f"orphaned temp file {name} (crash mid-compaction): "
                + ("removed" if truncate else "ignored")
            )
            if truncate:
                os.unlink(os.path.join(state_dir, name))


def _load_snapshot(
    state_dir: str, state: RecoveredState, shards: Optional[int]
) -> None:
    candidates = sorted(
        (
            name for name in os.listdir(state_dir)
            if name.startswith(SNAPSHOT_PREFIX) and name.endswith(".json")
        ),
        reverse=True,
    )
    snap = None
    for name in candidates:
        path = os.path.join(state_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if (
                not isinstance(loaded, dict)
                or loaded.get("kind") != "repro-wal-snapshot"
            ):
                raise ValueError("not a repro WAL snapshot")
        except (OSError, ValueError) as exc:
            state.warnings.append(
                f"snapshot {name} is unreadable ({exc}); falling back "
                f"to an older snapshot plus the WAL"
            )
            continue
        snap = loaded
        state.snapshot_path = path
        break
    if snap is None:
        if candidates:
            raise RecoveryError(
                f"no readable snapshot among {len(candidates)} "
                f"candidate(s) in {state_dir!r}"
            )
        return
    state.snapshot_seq = int(snap.get("last_seq") or 0)
    state.shards = int(snap.get("shards") or 0) or None
    if (
        shards is not None
        and state.shards is not None
        and state.shards != shards
    ):
        raise RecoveryError(
            f"state dir was written with {state.shards} shard(s); "
            f"restart with --procs {state.shards} (journal entries "
            f"are routed by shard index)"
        )
    for key, entries in (snap.get("journals") or {}).items():
        state.journals[int(key)] = [
            (str(e[0]), str(e[1])) for e in entries
        ]
    for name, shard in (snap.get("view_shard") or {}).items():
        state.view_shard[str(name)] = int(shard)


def _list_segments(state_dir: str) -> List[str]:
    pairs = []
    for name in os.listdir(state_dir):
        if name.startswith(SEGMENT_PREFIX) and name.endswith(".log"):
            ordinal = _segment_ordinal(name)
            if ordinal is not None:
                pairs.append((ordinal, os.path.join(state_dir, name)))
    return [path for _, path in sorted(pairs)]


def _has_later_data(scanned, index: int, bad_offset: int) -> bool:
    """Intact records after the damage point? (same or later segment)"""
    for _, records, _, _ in scanned[index + 1:]:
        if records:
            return True
    # the sequential scan stopped at the damage; resync by looking for
    # a decodable record anywhere in the remaining bytes — a crash can
    # only tear the *end* of an append-only log, so an intact record
    # after damaged bytes means the damage is mid-history corruption
    path = scanned[index][0]
    with open(path, "rb") as fh:
        fh.seek(bad_offset)
        blob = fh.read()
    pos = 1  # skip the damaged record's own magic
    while True:
        idx = blob.find(WAL_MAGIC, pos)
        if idx < 0:
            return False
        records, _, _ = scan_segment(io.BytesIO(blob[idx:]))
        if records:
            return True
        pos = idx + 1


def _truncate_segment(path: str, offset: int) -> None:
    with open(path, "r+b") as fh:
        fh.truncate(offset)
        fh.flush()
        os.fsync(fh.fileno())


def _apply_record(state: RecoveredState, record: WalRecord) -> None:
    state.journals.setdefault(record.shard, []).append(
        (record.sql, record.session)
    )
    route_write(state.view_shard, journal_write(record.sql), record.shard)
