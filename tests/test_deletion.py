"""Deletion support: B+tree lazy deletes and LSM tombstones."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BPlusTree
from repro.storage.lsm import LSMTree
from repro.storage.record import TOMBSTONE, encode_key, encode_value


def _key(i: int) -> bytes:
    return encode_key(i // 50, i % 50)


def _value(i: int) -> bytes:
    return encode_value(float(i), float(-i))


class TestBPlusTreeDelete:
    def test_delete_existing(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "t.db"))
        tree.put(_key(1), _value(1))
        assert tree.delete(_key(1)) is True
        assert tree.get(_key(1)) is None
        assert len(tree) == 0
        tree.close()

    def test_delete_missing(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "t.db"))
        assert tree.delete(_key(1)) is False
        tree.close()

    def test_delete_then_reinsert(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "t.db"))
        tree.put(_key(5), _value(5))
        tree.delete(_key(5))
        tree.put(_key(5), _value(55))
        assert tree.get(_key(5)) == _value(55)
        tree.close()

    def test_range_skips_deleted(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "t.db"))
        for i in range(20):
            tree.put(_key(i), _value(i))
        for i in range(0, 20, 2):
            tree.delete(_key(i))
        keys = [k for k, _ in tree.range(_key(0), _key(20))]
        assert keys == [_key(i) for i in range(1, 20, 2)]
        tree.close()

    def test_delete_across_many_leaves(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "t.db"))
        n = 1000
        for i in range(n):
            tree.put(_key(i), _value(i))
        for i in range(0, n, 3):
            assert tree.delete(_key(i))
        assert len(tree) == n - len(range(0, n, 3))
        for i in range(n):
            expected = None if i % 3 == 0 else _value(i)
            assert tree.get(_key(i)) == expected
        tree.close()

    def test_delete_persists(self, tmp_path):
        path = str(tmp_path / "t.db")
        tree = BPlusTree(path)
        tree.put(_key(1), _value(1))
        tree.put(_key(2), _value(2))
        tree.delete(_key(1))
        tree.close()
        reopened = BPlusTree(path)
        assert reopened.get(_key(1)) is None
        assert reopened.get(_key(2)) == _value(2)
        reopened.close()


class TestLSMDelete:
    def test_delete_in_memtable(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm")) as tree:
            tree.put(_key(1), _value(1))
            tree.delete(_key(1))
            assert tree.get(_key(1)) is None

    def test_delete_shadows_flushed_value(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm")) as tree:
            tree.put(_key(1), _value(1))
            tree.flush()
            tree.delete(_key(1))
            assert tree.get(_key(1)) is None
            tree.flush()
            assert tree.get(_key(1)) is None

    def test_range_skips_tombstones(self, tmp_path):
        with LSMTree(str(tmp_path / "lsm")) as tree:
            for i in range(10):
                tree.put(_key(i), _value(i))
            tree.flush()
            for i in range(0, 10, 2):
                tree.delete(_key(i))
            keys = [k for k, _ in tree.range(_key(0), _key(10))]
            assert keys == [_key(i) for i in range(1, 10, 2)]

    def test_compaction_drops_tombstones(self, tmp_path):
        directory = str(tmp_path / "lsm")
        with LSMTree(directory, memtable_limit=128, compaction_fanin=2) as tree:
            for i in range(100):
                tree.put(_key(i), _value(i))
            for i in range(50):
                tree.delete(_key(i))
            tree.flush()
            # After the full merge, no tombstone byte pattern remains.
            for run in tree._runs:
                for _key_bytes, value in run.items():
                    assert value != TOMBSTONE
            for i in range(50):
                assert tree.get(_key(i)) is None
            for i in range(50, 100):
                assert tree.get(_key(i)) == _value(i)

    def test_delete_survives_reopen_via_wal(self, tmp_path):
        directory = str(tmp_path / "lsm")
        tree = LSMTree(directory, memtable_limit=10**9)
        tree.put(_key(1), _value(1))
        tree.flush()
        tree.delete(_key(1))
        tree._wal.sync()
        recovered = LSMTree(directory)  # crash: no flush of the tombstone
        assert recovered.get(_key(1)) is None
        recovered.close()

    @given(
        st.lists(
            st.tuples(st.integers(0, 80), st.booleans()),
            max_size=80,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_model_based_with_deletes(self, tmp_path_factory, operations):
        directory = tmp_path_factory.mktemp("lsm-del")
        model = {}
        with LSMTree(str(directory / "lsm"), memtable_limit=512,
                     compaction_fanin=3) as tree:
            for i, is_delete in operations:
                if is_delete:
                    tree.delete(_key(i))
                    model.pop(_key(i), None)
                else:
                    tree.put(_key(i), _value(i))
                    model[_key(i)] = _value(i)
            for key, value in model.items():
                assert tree.get(key) == value
            assert dict(tree.range(_key(0), _key(100))) == model
