"""LSM tree and its components: bloom, memtable, WAL, SSTable, compaction."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.lsm import (
    BloomFilter,
    LSMTree,
    MemTable,
    SSTable,
    WriteAheadLog,
    merge_runs,
    write_sstable,
)
from repro.storage.record import encode_key, encode_value


def _key(i: int) -> bytes:
    return encode_key(i // 50, i % 50)


def _value(i: int) -> bytes:
    return encode_value(float(i), float(i) / 2)


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter.with_capacity(500)
        keys = [_key(i) for i in range(500)]
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.with_capacity(1000, fp_rate=0.01)
        for i in range(1000):
            bloom.add(_key(i))
        false_positives = sum(1 for i in range(1000, 6000) if _key(i) in bloom)
        assert false_positives / 5000 < 0.05

    def test_serialisation_roundtrip(self):
        bloom = BloomFilter.with_capacity(100)
        bloom.add(b"x" * 16)
        restored = BloomFilter.from_bytes(bloom.to_bytes())
        assert b"x" * 16 in restored
        assert b"y" * 16 not in restored or b"y" * 16 in bloom  # determinism


class TestMemTable:
    def test_put_get_overwrite(self):
        table = MemTable()
        table.put(_key(1), _value(1))
        table.put(_key(1), _value(9))
        assert table.get(_key(1)) == _value(9)
        assert len(table) == 1

    def test_range_sorted(self):
        table = MemTable()
        for i in (5, 1, 3, 2, 4):
            table.put(_key(i), _value(i))
        keys = [k for k, _ in table.range(_key(2), _key(4))]
        assert keys == [_key(2), _key(3), _key(4)]

    def test_clear(self):
        table = MemTable()
        table.put(_key(1), _value(1))
        table.clear()
        assert len(table) == 0

    @given(
        st.lists(
            st.one_of(
                st.tuples(st.integers(0, 30), st.binary(max_size=40)),
                st.just("clear"),
            ),
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_byte_size_is_the_sum_of_entries(self, operations):
        """The running byte count survives puts, overwrites with values
        of another length, and clears."""
        table = MemTable()
        for op in operations:
            if op == "clear":
                table.clear()
            else:
                table.put(_key(op[0]), op[1])
            assert table.byte_size == sum(len(k) + len(v) for k, v in table.items())


class TestWAL:
    def test_replay_returns_writes_in_order(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.append(b"k2", b"v2")
        wal.sync()
        wal.close()
        assert list(WriteAheadLog.replay(path)) == [(b"k1", b"v1"), (b"k2", b"v2")]

    def test_torn_tail_discarded(self, tmp_path):
        path = str(tmp_path / "torn.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.sync()
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\x00\x00\x00\x02\x00\x00\x00\x02k")  # truncated
        assert list(WriteAheadLog.replay(path)) == [(b"k1", b"v1")]

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "trunc.log")
        wal = WriteAheadLog(path)
        wal.append(b"k1", b"v1")
        wal.truncate()
        wal.close()
        assert list(WriteAheadLog.replay(path)) == []

    def test_replay_missing_file(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "nope.log"))) == []


class TestSSTable:
    def test_write_and_point_reads(self, tmp_path):
        path = str(tmp_path / "run.sst")
        table = write_sstable(path, ((_key(i), _value(i)) for i in range(1000)))
        assert table.num_records == 1000
        assert table.get(_key(123)) == _value(123)
        assert table.get(_key(5000)) is None
        table.close()

    def test_range_scan(self, tmp_path):
        path = str(tmp_path / "run.sst")
        table = write_sstable(path, ((_key(i), _value(i)) for i in range(500)))
        got = [k for k, _ in table.range(_key(100), _key(149))]
        assert got == [_key(i) for i in range(100, 150)]
        table.close()

    def test_min_max_keys(self, tmp_path):
        table = write_sstable(
            str(tmp_path / "mm.sst"), ((_key(i), _value(i)) for i in range(10, 40))
        )
        assert table.min_key == _key(10)
        assert table.max_key == _key(39)
        table.close()

    def test_rejects_unsorted(self, tmp_path):
        with pytest.raises(ValueError):
            write_sstable(
                str(tmp_path / "bad.sst"), [(_key(2), _value(2)), (_key(1), _value(1))]
            )

    def test_reopen(self, tmp_path):
        path = str(tmp_path / "reopen.sst")
        write_sstable(path, ((_key(i), _value(i)) for i in range(100))).close()
        table = SSTable(path)
        assert table.get(_key(42)) == _value(42)
        table.close()

    def test_merge_runs_newest_wins(self, tmp_path):
        old = write_sstable(
            str(tmp_path / "old.sst"), [(_key(1), _value(1)), (_key(2), _value(2))]
        )
        new = write_sstable(str(tmp_path / "new.sst"), [(_key(1), _value(99))])
        merged = dict(merge_runs([new, old]))  # newest first
        assert merged[_key(1)] == _value(99)
        assert merged[_key(2)] == _value(2)
        old.close()
        new.close()


class TestLSMTree:
    def test_put_get_through_layers(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=1024) as tree:
            for i in range(200):  # crosses several flushes
                tree.put(_key(i), _value(i))
            for i in range(200):
                assert tree.get(_key(i)) == _value(i)

    def test_overwrite_across_flush(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=512) as tree:
            tree.put(_key(7), _value(7))
            tree.flush()
            tree.put(_key(7), _value(777))
            assert tree.get(_key(7)) == _value(777)
            tree.flush()
            assert tree.get(_key(7)) == _value(777)

    def test_get_many_through_layers(self, tmp_path):
        """A newer layer answers for a key, tombstones included; an older
        run answers only keys every newer layer lacks."""
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=10**9) as tree:
            for i in range(200):  # two blocks in the oldest run
                tree.put(_key(i), _value(i))
            tree.flush()
            tree.delete(_key(3))
            tree.put(_key(150), _value(1500))
            tree.flush()
            tree.put(_key(3), _value(33))
            tree.delete(_key(199))
            probes = [_key(i) for i in (0, 3, 127, 128, 150, 199, 250)]
            assert tree.get_many(probes) == [
                _value(0), _value(33), _value(127), _value(128), _value(1500),
                None, None,
            ]
            tree.delete(_key(3))
            assert tree.get_many(probes[:2]) == [_value(0), None]
            tree.flush()
            assert tree.get_many(probes[:2]) == [_value(0), None]
            assert tree.get_many([]) == []

    def test_range_merges_layers(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm"), memtable_limit=256) as tree:
            for i in range(0, 100, 2):
                tree.put(_key(i), _value(i))
            tree.flush()
            for i in range(1, 100, 2):
                tree.put(_key(i), _value(i))
            keys = [k for k, _ in tree.range(_key(0), _key(99))]
            assert keys == [_key(i) for i in range(100)]

    def test_wal_recovery_after_crash(self, tmp_path):
        directory = str(tmp_path / "lsm")
        tree = LSMTree(directory, memtable_limit=10**9)  # never auto-flush
        tree.put(_key(1), _value(1))
        tree.put(_key(2), _value(2))
        tree._wal.sync()
        # Simulate a crash: no flush/close; reopen from disk.
        recovered = LSMTree(directory)
        assert recovered.get(_key(1)) == _value(1)
        assert recovered.get(_key(2)) == _value(2)
        recovered.close()

    def test_compaction_collapses_runs(self, tmp_path):
        directory = str(tmp_path / "lsm")
        with LSMTree(directory, memtable_limit=64, compaction_fanin=3) as tree:
            for i in range(300):
                tree.put(_key(i), _value(i))
            tree.flush()
            runs = [f for f in os.listdir(directory) if f.endswith(".sst")]
            assert len(runs) < 3
            for i in range(0, 300, 17):
                assert tree.get(_key(i)) == _value(i)

    @given(st.lists(st.integers(0, 40), max_size=120))
    @settings(max_examples=20, deadline=None)
    def test_flushes_when_the_summed_entries_reach_the_limit(
        self, tmp_path_factory, puts
    ):
        """A put flushes exactly when the memtable's recomputed byte sum
        reaches the limit, overwrites included."""
        limit = 300
        with LSMTree(
            str(tmp_path_factory.mktemp("lsm-flush") / "lsm"), memtable_limit=limit
        ) as tree:
            held = set()
            for i in puts:
                tree.put(_key(i), _value(i))
                held.add(_key(i))
                if sum(len(k) + len(_value(0)) for k in held) >= limit:
                    held.clear()  # this put flushed the memtable
                assert len(tree._memtable) == len(held)

    def test_bulk_load(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm")) as tree:
            tree.bulk_load((_key(i), _value(i)) for i in range(500))
            assert tree.get(_key(250)) == _value(250)
            assert len(tree) == 500

    def test_reopen_after_close(self, tmp_path):
        directory = str(tmp_path / "lsm")
        with LSMTree(directory, memtable_limit=512) as tree:
            for i in range(100):
                tree.put(_key(i), _value(i))
        with LSMTree(directory) as reopened:
            for i in range(100):
                assert reopened.get(_key(i)) == _value(i)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "put", "delete", "flush"]),
                st.integers(0, 150),
                st.integers(0, 10_000),
            ),
            max_size=100,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_model_based_vs_dict(self, tmp_path_factory, operations):
        """After every step, gets, batched gets over present and absent
        keys, and scans agree with a dict, across memtable shadowing,
        tombstones, flushes and compactions."""
        directory = tmp_path_factory.mktemp("lsm-model")
        model = {}
        with LSMTree(
            str(directory / "lsm"), memtable_limit=512, compaction_fanin=3
        ) as tree:
            for kind, i, value_seed in operations:
                if kind == "put":
                    tree.put(_key(i), _value(value_seed))
                    model[_key(i)] = _value(value_seed)
                elif kind == "delete":
                    # Mostly an existing key, so tombstones shadow values.
                    key = sorted(model)[i % len(model)] if model else _key(i)
                    tree.delete(key)
                    model.pop(key, None)
                else:
                    tree.flush()
                probes = sorted(set(model) | {_key(i) for i in range(0, 170, 4)})
                assert tree.get_many(probes) == [model.get(k) for k in probes]
            for key, value in model.items():
                assert tree.get(key) == value
            assert dict(tree.range(_key(0), _key(200))) == model
