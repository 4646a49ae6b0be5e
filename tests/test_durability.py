"""Unit tests for the durable catalog WAL (:mod:`repro.serve.durability`).

Everything here runs in-process — the record codec, torn-tail
handling, snapshot selection and fallback, journal compaction, group
commit, and the writer/recovery round trip.  The whole-process kill -9
proof lives in ``tests/test_torture.py``.
"""

import io
import json
import os
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import DurabilityError, RecoveryError
from repro.query.ast import (
    CreateCadViewStatement,
    DropCadViewStatement,
    ReorderRowsStatement,
    catalog_write,
)
from repro.query.parser import parse
from repro.serve.durability import (
    HEADER,
    WalWriter,
    compact_journal,
    encode_record,
    recover_state,
    scan_segment,
    segment_path,
    snapshot_path,
)

CREATE_A = (
    "CREATE CADVIEW a AS SET pivot = Make "
    "SELECT Price FROM data LIMIT COLUMNS 3 IUNITS 2"
)
CREATE_A2 = (
    "CREATE CADVIEW a AS SET pivot = BodyType "
    "SELECT Price FROM data LIMIT COLUMNS 3 IUNITS 2"
)
CREATE_B = (
    "CREATE CADVIEW b AS SET pivot = Make "
    "SELECT Mileage FROM data LIMIT COLUMNS 3 IUNITS 2"
)
REORDER_A = "REORDER ROWS IN a ORDER BY SIMILARITY(Ford) DESC"
DROP_A = "DROP CADVIEW a"


class TestRecordCodec:
    def test_roundtrip(self):
        data = encode_record(7, 3, CREATE_A, "s1")
        records, bad, reason = scan_segment(io.BytesIO(data))
        assert bad is None and reason is None
        (rec,) = records
        assert rec.seq == 7
        assert rec.shard == 3
        assert rec.sql == CREATE_A
        assert rec.session == "s1"
        assert rec.offset == 0
        assert rec.length == len(data)

    def test_multiple_records_offsets(self):
        blob = b"".join(
            encode_record(i + 1, 0, DROP_A, "s") for i in range(3)
        )
        records, bad, _ = scan_segment(io.BytesIO(blob))
        assert bad is None
        assert [r.seq for r in records] == [1, 2, 3]
        assert records[1].offset == records[0].length
        assert records[2].offset == records[0].length + records[1].length

    def test_shard_out_of_range_refused(self):
        with pytest.raises(DurabilityError):
            encode_record(1, 256, DROP_A, "s")
        with pytest.raises(DurabilityError):
            encode_record(-1, 0, DROP_A, "s")

    def test_crc_flip_detected_anywhere(self):
        data = bytearray(encode_record(1, 0, CREATE_A, "s1"))
        for pos in (3, HEADER.size + 4):  # header byte, payload byte
            flipped = bytearray(data)
            flipped[pos] ^= 0x40
            records, bad, reason = scan_segment(io.BytesIO(bytes(flipped)))
            assert records == []
            assert bad == 0
            assert reason is not None

    def test_truncated_header_and_payload(self):
        data = encode_record(1, 0, CREATE_A, "s1")
        for cut in (HEADER.size - 3, len(data) - 5):
            records, bad, reason = scan_segment(io.BytesIO(data[:cut]))
            assert records == []
            assert bad == 0
            assert "short" in reason

    def test_torn_tail_after_intact_records(self):
        good = encode_record(1, 0, DROP_A, "s")
        torn = encode_record(2, 0, DROP_A, "s")[:10]
        records, bad, _ = scan_segment(io.BytesIO(good + torn))
        assert [r.seq for r in records] == [1]
        assert bad == len(good)


class TestCompactJournal:
    def test_drop_annihilates(self):
        entries = [(CREATE_A, "s"), (REORDER_A, "s"), (DROP_A, "s")]
        assert compact_journal(entries) == []

    def test_recreate_supersedes(self):
        entries = [(CREATE_A, "s"), (REORDER_A, "s"), (CREATE_A2, "s")]
        assert compact_journal(entries) == [(CREATE_A2, "s")]

    def test_other_views_survive(self):
        entries = [(CREATE_A, "s"), (CREATE_B, "s"), (DROP_A, "s")]
        assert compact_journal(entries) == [(CREATE_B, "s")]

    def test_reorder_kept_and_unparsable_kept(self):
        entries = [(CREATE_A, "s"), (REORDER_A, "s"), ("garbage !", "s")]
        assert compact_journal(entries) == entries

    def test_composable(self):
        # compact(compact(a) + b) == compact(a + b): the property that
        # makes comparing compacted acked vs recovered journals sound
        a = [(CREATE_A, "s"), (REORDER_A, "s")]
        b = [(DROP_A, "s"), (CREATE_B, "s")]
        assert compact_journal(compact_journal(a) + b) == \
            compact_journal(a + b)

    def test_fold_parses_each_entry_once(self, monkeypatch):
        # each CREATE folds in without re-parsing the entries kept
        # before it (the batch form re-parsed them all: quadratic)
        from repro.serve.durability import recovery

        calls = []

        def counting_parse(sql):
            calls.append(sql)
            return parse(sql)

        monkeypatch.setattr(recovery, "parse", counting_parse)
        entries = [
            (CREATE_A.replace("CADVIEW a", f"CADVIEW v{i}"), "s")
            for i in range(256)
        ]
        assert compact_journal(entries) == entries
        assert len(calls) <= 256

    @given(st.lists(st.tuples(
        st.one_of(
            st.builds(
                "CREATE CADVIEW {} AS SET pivot = {} SELECT Price FROM "
                "data LIMIT COLUMNS 3 IUNITS 2".format,
                st.sampled_from("abc"),
                st.sampled_from(["Make", "BodyType"]),
            ),
            st.builds("DROP CADVIEW {}".format, st.sampled_from("abc")),
            st.builds(
                "REORDER ROWS IN {} ORDER BY SIMILARITY(Ford) DESC".format,
                st.sampled_from("abc"),
            ),
            st.sampled_from(["garbage !", "CREATE CADVIEW"]),
        ),
        st.sampled_from(["s0", "s1"]),
    ), max_size=30))
    def test_fold_matches_batch_compaction(self, entries):
        assert compact_journal(entries) == _batch_compact(entries)


def _batch_compact(entries):
    """The batch compaction the per-append fold replaced (the oracle):
    for each CREATE or DROP, re-parse every kept entry and drop those
    on the same view."""

    def target(sql):
        try:
            stmt = parse(sql)
        except Exception:
            return None
        if isinstance(stmt, CreateCadViewStatement):
            return ("create", stmt.name)
        if isinstance(stmt, DropCadViewStatement):
            return ("drop", stmt.name)
        if isinstance(stmt, ReorderRowsStatement):
            return ("reorder", stmt.view)
        return None

    compacted = []
    for sql, session in entries:
        write = target(sql)
        if write is None:
            compacted.append((sql, session))
            continue
        kind, view = write
        if kind in ("create", "drop"):
            compacted = [
                entry for entry in compacted
                if target(entry[0]) is None or target(entry[0])[1] != view
            ]
        if kind != "drop":
            compacted.append((sql, session))
    return compacted


@pytest.mark.parametrize("sql, write", [
    ("SELECT Make FROM data", None),
    ("DESCRIBE data", None),
    ("SHOW CADVIEWS", None),
    ("HIGHLIGHT SIMILAR IUNITS IN a WHERE SIMILARITY(Ford, 1) > 0.5", None),
    (CREATE_A, ("create", "a")),
    (DROP_A, ("drop", "a")),
    (REORDER_A, ("reorder", "a")),
    # plain EXPLAIN and EXPLAIN CHECK execute nothing ...
    (f"EXPLAIN {CREATE_A}", None),
    (f"EXPLAIN {DROP_A}", None),
    (f"EXPLAIN {REORDER_A}", None),
    (f"EXPLAIN CHECK {CREATE_A}", None),
    (f"EXPLAIN CHECK {DROP_A}", None),
    (f"EXPLAIN CHECK {REORDER_A}", None),
    # ... EXPLAIN ANALYZE executes its inner statement
    (f"EXPLAIN ANALYZE {CREATE_A}", ("create", "a")),
    (f"EXPLAIN ANALYZE {DROP_A}", ("drop", "a")),
    (f"EXPLAIN ANALYZE {REORDER_A}", ("reorder", "a")),
    ("EXPLAIN ANALYZE SELECT Make FROM data", None),
    ("EXPLAIN ANALYZE SHOW CADVIEWS", None),
])
def test_catalog_write(sql, write):
    assert catalog_write(parse(sql)) == write


class TestWalWriter:
    def test_commit_assigns_contiguous_seqs(self, tmp_path):
        w = WalWriter(str(tmp_path))
        seqs = [w.commit(0, DROP_A, "s") for _ in range(5)]
        w.close(final_snapshot=False)
        assert seqs == [1, 2, 3, 4, 5]
        rec = recover_state(str(tmp_path))
        assert rec.last_seq == 5
        assert rec.journals[0] == [(DROP_A, "s")] * 5

    def test_segment_rotation(self, tmp_path):
        w = WalWriter(str(tmp_path), segment_max_bytes=1)
        for _ in range(3):
            w.commit(0, DROP_A, "s")
        w.close(final_snapshot=False)
        segments = sorted(
            n for n in os.listdir(tmp_path) if n.startswith("wal-")
        )
        assert len(segments) == 3  # every second+ record rotates
        rec = recover_state(str(tmp_path))
        assert rec.last_seq == 3

    def test_snapshot_compacts_and_truncates(self, tmp_path):
        journal = []

        def snapshot_cb():
            compacted = compact_journal(journal)
            journal[:] = compacted
            return {
                "shards": 1,
                "view_shard": {"a": 0} if compacted else {},
                "journals": {0: list(compacted)},
            }

        w = WalWriter(
            str(tmp_path), segment_max_bytes=1, snapshot_every=2,
            snapshot_cb=snapshot_cb,
        )
        for sql in (CREATE_A, REORDER_A, DROP_A, CREATE_A2):
            w.commit(0, sql, "s", on_durable=lambda s=sql:
                     journal.append((s, "s")))
        w.close(final_snapshot=False)
        names = sorted(os.listdir(tmp_path))
        snapshots = [n for n in names if n.startswith("snapshot-")]
        assert snapshots == [os.path.basename(
            snapshot_path(str(tmp_path), 4)
        )]
        rec = recover_state(str(tmp_path))
        assert rec.last_seq == 4
        assert rec.snapshot_seq == 4
        assert rec.journals[0] == [(CREATE_A2, "s")]
        assert rec.view_shard == {"a": 0}

    def test_snapshot_images_triggering_record(self, tmp_path):
        # regression: the record whose commit triggers the snapshot
        # must be *in* the snapshot image (its segment is truncated)
        journal = []
        w = WalWriter(
            str(tmp_path), snapshot_every=1,
            snapshot_cb=lambda: {
                "shards": 1, "view_shard": {},
                "journals": {0: list(journal)},
            },
        )
        w.commit(0, CREATE_A, "s",
                 on_durable=lambda: journal.append((CREATE_A, "s")))
        w.close(final_snapshot=False)
        rec = recover_state(str(tmp_path))
        assert rec.snapshot_seq == 1
        assert rec.journals[0] == [(CREATE_A, "s")]

    def test_group_commit_batches_fsyncs(self, tmp_path):
        w = WalWriter(str(tmp_path), fsync_interval_ms=20.0)
        threads = [
            threading.Thread(target=w.commit, args=(0, DROP_A, f"s{i}"))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = w.stats()
        w.close(final_snapshot=False)
        assert stats["last_seq"] == 8
        rec = recover_state(str(tmp_path))
        assert rec.last_seq == 8
        assert sorted(s for _, s in rec.journals[0]) == \
            sorted(f"s{i}" for i in range(8))

    def test_commit_after_close_refused(self, tmp_path):
        w = WalWriter(str(tmp_path))
        w.close(final_snapshot=False)
        with pytest.raises(DurabilityError):
            w.commit(0, DROP_A, "s")

    def test_resume_starts_fresh_segment(self, tmp_path):
        w = WalWriter(str(tmp_path))
        w.commit(0, CREATE_A, "s")
        w.close(final_snapshot=False)
        rec = recover_state(str(tmp_path))
        assert rec.next_ordinal == 1
        w2 = WalWriter(
            str(tmp_path), start_seq=rec.last_seq,
            start_ordinal=rec.next_ordinal,
        )
        w2.commit(0, REORDER_A, "s")
        w2.close(final_snapshot=False)
        rec2 = recover_state(str(tmp_path))
        assert rec2.last_seq == 2
        assert rec2.journals[0] == [(CREATE_A, "s"), (REORDER_A, "s")]


class TestRecovery:
    def _write_records(self, tmp_path, seqs, ordinal=0, shard=0):
        path = segment_path(str(tmp_path), ordinal)
        with open(path, "ab") as fh:
            for seq in seqs:
                fh.write(encode_record(seq, shard, DROP_A, "s"))
        return path

    def test_missing_dir_refused(self, tmp_path):
        with pytest.raises(RecoveryError):
            recover_state(str(tmp_path / "nope"))

    def test_empty_dir_recovers_empty(self, tmp_path):
        rec = recover_state(str(tmp_path))
        assert rec.last_seq == 0
        assert rec.journals == {}

    def test_torn_tail_truncated_with_warning(self, tmp_path):
        path = self._write_records(tmp_path, [1, 2])
        with open(path, "ab") as fh:
            fh.write(encode_record(3, 0, DROP_A, "s")[:15])
        rec = recover_state(str(tmp_path), truncate=True)
        assert rec.last_seq == 2
        assert rec.torn_tail is not None
        assert rec.torn_tail["truncated"] is True
        assert rec.warnings
        # the file is physically truncated: a second pass is clean
        rec2 = recover_state(str(tmp_path))
        assert rec2.torn_tail is None
        assert rec2.last_seq == 2

    def test_readonly_pass_leaves_tail(self, tmp_path):
        path = self._write_records(tmp_path, [1])
        with open(path, "ab") as fh:
            fh.write(b"\x00" * 7)
        size = os.path.getsize(path)
        rec = recover_state(str(tmp_path), truncate=False)
        assert rec.torn_tail is not None
        assert rec.torn_tail["truncated"] is False
        assert os.path.getsize(path) == size

    def test_mid_history_damage_refused(self, tmp_path):
        path = self._write_records(tmp_path, [1])
        good = encode_record(2, 0, DROP_A, "s")
        with open(path, "ab") as fh:
            fh.write(good[:10])      # torn record...
            fh.write(good)           # ...with intact bytes after it
        with pytest.raises(RecoveryError, match="mid-history"):
            recover_state(str(tmp_path))

    def test_damage_in_earlier_segment_refused(self, tmp_path):
        path = self._write_records(tmp_path, [1], ordinal=0)
        with open(path, "ab") as fh:
            fh.write(encode_record(2, 0, DROP_A, "s")[:10])
        self._write_records(tmp_path, [2], ordinal=1)
        with pytest.raises(RecoveryError, match="mid-history"):
            recover_state(str(tmp_path))

    def test_seq_gap_refused(self, tmp_path):
        self._write_records(tmp_path, [1, 3])
        with pytest.raises(RecoveryError, match="gap"):
            recover_state(str(tmp_path))

    def test_newest_snapshot_wins(self, tmp_path):
        for seq, views in ((2, {"a": 0}), (5, {"b": 0})):
            with open(snapshot_path(str(tmp_path), seq), "w") as fh:
                json.dump({
                    "kind": "repro-wal-snapshot", "version": 1,
                    "last_seq": seq, "shards": 1,
                    "view_shard": views,
                    "journals": {"0": [[CREATE_A, "s"]]},
                }, fh)
        rec = recover_state(str(tmp_path))
        assert rec.snapshot_seq == 5
        assert rec.view_shard == {"b": 0}

    def test_invalid_newest_snapshot_falls_back(self, tmp_path):
        with open(snapshot_path(str(tmp_path), 2), "w") as fh:
            json.dump({
                "kind": "repro-wal-snapshot", "version": 1,
                "last_seq": 2, "shards": 1, "view_shard": {},
                "journals": {"0": [[CREATE_A, "s"]]},
            }, fh)
        with open(snapshot_path(str(tmp_path), 9), "w") as fh:
            fh.write('{"kind": "repro-wal-snap')  # torn mid-write
        rec = recover_state(str(tmp_path))
        assert rec.snapshot_seq == 2
        assert any("unreadable" in w for w in rec.warnings)

    def test_all_snapshots_invalid_refused(self, tmp_path):
        with open(snapshot_path(str(tmp_path), 3), "w") as fh:
            fh.write("not json")
        with pytest.raises(RecoveryError, match="no readable snapshot"):
            recover_state(str(tmp_path))

    def test_snapshot_shard_mismatch_refused(self, tmp_path):
        with open(snapshot_path(str(tmp_path), 1), "w") as fh:
            json.dump({
                "kind": "repro-wal-snapshot", "version": 1,
                "last_seq": 1, "shards": 2, "view_shard": {},
                "journals": {},
            }, fh)
        with pytest.raises(RecoveryError, match="--procs 2"):
            recover_state(str(tmp_path), shards=3)

    def test_records_covered_by_snapshot_skipped(self, tmp_path):
        with open(snapshot_path(str(tmp_path), 2), "w") as fh:
            json.dump({
                "kind": "repro-wal-snapshot", "version": 1,
                "last_seq": 2, "shards": 1, "view_shard": {},
                "journals": {"0": [[CREATE_A, "s"]]},
            }, fh)
        # a crash between snapshot rename and segment deletion leaves
        # records the snapshot already covers
        self._write_records(tmp_path, [1, 2, 3])
        rec = recover_state(str(tmp_path))
        assert rec.records_skipped == 2
        assert rec.records_replayed == 1
        assert rec.last_seq == 3

    def test_orphan_tmp_files_cleaned(self, tmp_path):
        orphan = tmp_path / ".snapshot-000000000003.json.tmp.12345"
        orphan.write_text("{}")
        rec = recover_state(str(tmp_path), truncate=True)
        assert not orphan.exists()
        assert any("orphaned temp" in w for w in rec.warnings)
