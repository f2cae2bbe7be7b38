"""The shared CRC frame: on-disk golden files and the torn-tail contract.

``tests/data/framed/`` holds a feed WAL (one rotated segment plus the
active file, snapshot and finish records), a ``checkpoint.bin`` and a
two-frame cold segment.  The files were written by the original
per-format codecs; the tests below pin that every format built on
:mod:`repro.storage.framed` reads them back to the same records and
writes the same records out byte for byte.
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.types import Convoy
from repro.extensions.streaming import MonitorState
from repro.service.durability import (
    CHECKPOINT_FILE,
    KIND_FINISH,
    KIND_SNAPSHOT,
    STAT_FIELDS,
    WAL_FILE,
    CheckpointState,
    FeedWAL,
    ServiceJournal,
    ShardConfig,
)
from repro.service.retention import ColdSegmentReader, ColdSegmentStore
from repro.storage import framed

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "framed")

#: Rotation size that seals the first two snapshots into ``feed.wal.000000``.
WAL_SEGMENT_BYTES = 150

#: ``(kind, src, seq, t, oids, xs, ys)`` in append order.
WAL_RECORDS = (
    (KIND_SNAPSHOT, "a", 1, 10, [1, 2], [0.5, 1.5], [2.0, 3.0]),
    (KIND_SNAPSHOT, "a", 2, 11, [1, 2], [0.75, 1.75], [2.25, 3.25]),
    (KIND_SNAPSHOT, "b", 1, 11, [7, 9], [-4.0, 8.5], [1e-3, 6e5]),
    (KIND_FINISH, "a", 3, 0, None, None, None),
)

CHECKPOINT = CheckpointState(
    applied={"a": 3, "b": 1},
    stats={name: 10 + i for i, name in enumerate(STAT_FIELDS)},
    sharder=ShardConfig(nx=2, ny=1, bounds=(0.0, -1.5, 10.0, 20.25), eps=1.25),
    index_next_id=5,
    chain=MonitorState(
        last_time=11,
        active=(((1, 2), 10),),
        window=(
            (
                11,
                np.array([1, 2], dtype=np.int64),
                np.array([0.75, 1.75]),
                np.array([2.25, 3.25]),
            ),
        ),
    ),
    shards=(
        MonitorState(last_time=11, active=(((1, 2), 10),), window=()),
        MonitorState(last_time=None, active=(), window=()),
    ),
)

#: ``(convoy_id, objects, start, end, bbox)`` archived in one segment.
COLD_RECORDS = (
    (3, (1, 2, 3), 0, 4, None),
    (4, (2, 5, 70), 2, 9, (0.5, -1.0, 12.0, 3.5)),
)


def write_journal_fixture(directory):
    """Write the golden ``checkpoint.bin`` and feed WAL into ``directory``."""
    journal = ServiceJournal(directory, wal_budget_bytes=None)
    journal.write_checkpoint(CHECKPOINT)
    journal.close()
    wal = FeedWAL(
        os.path.join(directory, WAL_FILE), segment_bytes=WAL_SEGMENT_BYTES
    )
    for kind, src, seq, t, oids, xs, ys in WAL_RECORDS:
        if kind == KIND_FINISH:
            wal.append_finish(src, seq)
        else:
            wal.append_snapshot(
                src, seq, t,
                np.array(oids, dtype=np.int64), np.array(xs), np.array(ys),
            )
    wal.close()


def write_cold_fixture(directory):
    """Write the golden two-frame cold segment into ``directory``."""
    store = ColdSegmentStore(directory)
    for cid, objects, start, end, bbox in COLD_RECORDS:
        store.append(SimpleNamespace(
            convoy_id=cid, convoy=Convoy.of(objects, start, end), bbox=bbox
        ))
    store.close()


def _files(directory):
    """``{relative path: bytes}`` for every file under ``directory``."""
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as handle:
                out[os.path.relpath(path, directory)] = handle.read()
    return out


@pytest.fixture
def golden_copy(tmp_path):
    """A writable copy of the golden journal directory."""
    out = str(tmp_path / "copy")
    os.makedirs(out)
    for name, data in _files(GOLDEN).items():
        path = os.path.join(out, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(data)
    return out


class TestGoldenFiles:
    def test_golden_set_is_complete(self):
        assert sorted(_files(GOLDEN)) == sorted([
            CHECKPOINT_FILE,
            WAL_FILE,
            WAL_FILE + ".000000",
            os.path.join("cold", "segment-000000.seg"),
        ])

    def test_feed_wal_reads_back(self):
        records = list(FeedWAL.replay(os.path.join(GOLDEN, WAL_FILE)))
        assert len(records) == len(WAL_RECORDS)
        for record, (kind, src, seq, t, oids, xs, ys) in zip(
            records, WAL_RECORDS
        ):
            assert (record.kind, record.src, record.seq) == (kind, src, seq)
            if kind == KIND_SNAPSHOT:
                assert record.t == t
                np.testing.assert_array_equal(record.oids, oids)
                np.testing.assert_array_equal(record.xs, xs)
                np.testing.assert_array_equal(record.ys, ys)

    def test_checkpoint_reads_back(self, golden_copy):
        journal = ServiceJournal(golden_copy, wal_budget_bytes=None)
        state = journal.load_checkpoint()
        journal.close()
        assert state is not None
        assert state.applied == CHECKPOINT.applied
        assert state.stats == CHECKPOINT.stats
        assert state.sharder == CHECKPOINT.sharder
        assert state.index_next_id == CHECKPOINT.index_next_id
        assert state.chain.last_time == 11
        assert state.chain.active == CHECKPOINT.chain.active
        (t, oids, xs, ys), = state.chain.window
        assert t == 11
        np.testing.assert_array_equal(oids, [1, 2])
        np.testing.assert_array_equal(xs, [0.75, 1.75])
        np.testing.assert_array_equal(ys, [2.25, 3.25])
        assert state.shards == CHECKPOINT.shards

    def test_cold_segment_reads_back(self):
        records = ColdSegmentReader(os.path.join(GOLDEN, "cold")).records()
        assert [
            (r.convoy_id, r.convoy, r.bbox) for r in records
        ] == [
            (cid, Convoy.of(objects, start, end), bbox)
            for cid, objects, start, end, bbox in COLD_RECORDS
        ]

    def test_rewrite_is_byte_identical(self, tmp_path):
        out = str(tmp_path / "framed")
        write_journal_fixture(out)
        write_cold_fixture(os.path.join(out, "cold"))
        assert _files(out) == _files(GOLDEN)


class TestScan:
    def test_clean_log(self):
        data = framed.encode(b"one") + framed.encode(b"") + framed.encode(b"3")
        found = framed.scan(data)
        assert found.payloads == [b"one", b"", b"3"]
        assert (found.end, found.size, found.stop) == (len(data), len(data), None)

    @pytest.mark.parametrize("cut", [1, framed.FRAME.size, framed.FRAME.size + 2])
    def test_torn_frame_ends_the_scan(self, cut):
        good = framed.encode(b"kept")
        data = good + framed.encode(b"lost")[:cut]
        found = framed.scan(data)
        assert found.payloads == [b"kept"]
        assert (found.end, found.stop) == (len(good), framed.TORN)

    def test_checksum_mismatch_ends_the_scan(self):
        good = framed.encode(b"kept")
        bad = bytearray(framed.encode(b"flip"))
        bad[-1] ^= 0xFF
        found = framed.scan(good + bytes(bad) + framed.encode(b"hidden"))
        assert found.payloads == [b"kept"]
        assert (found.end, found.stop) == (len(good), framed.CORRUPT)

    def test_scan_starts_past_a_header(self):
        found = framed.scan(b"HDR" + framed.encode(b"x"), 3)
        assert found.payloads == [b"x"]


class TestOpenAppend:
    def test_new_file_gets_the_header(self, tmp_path):
        path = str(tmp_path / "log")
        with framed.open_append(path, b"HDR1") as handle:
            handle.write(framed.encode(b"a"))
        assert framed.read(path, b"HDR1").payloads == [b"a"]

    def test_torn_tail_is_truncated_before_appending(self, tmp_path, caplog):
        path = str(tmp_path / "log")
        with open(path, "wb") as handle:
            handle.write(b"HDR1" + framed.encode(b"a") + framed.encode(b"b")[:5])
        with caplog.at_level("WARNING"):
            handle = framed.open_append(path, b"HDR1")
        handle.write(framed.encode(b"c"))
        handle.close()
        assert framed.read(path, b"HDR1").payloads == [b"a", b"c"]
        assert any("torn" in rec.message for rec in caplog.records)

    def test_short_file_restarts_with_the_header(self, tmp_path):
        path = str(tmp_path / "log")
        with open(path, "wb") as handle:
            handle.write(b"HD")
        framed.open_append(path, b"HDR1").close()
        with open(path, "rb") as handle:
            assert handle.read() == b"HDR1"

    def test_foreign_header_is_rejected(self, tmp_path):
        path = str(tmp_path / "log")
        with open(path, "wb") as handle:
            handle.write(b"NOPE" + framed.encode(b"a"))
        assert framed.read(path, b"HDR1") is None
        with pytest.raises(ValueError, match="header"):
            framed.open_append(path, b"HDR1")
        with open(path, "rb") as handle:
            assert handle.read() == b"NOPE" + framed.encode(b"a")

