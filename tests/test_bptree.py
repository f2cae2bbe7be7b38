"""On-disk B+tree: point ops, range scans, bulk load, persistence."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BPlusTree
from repro.storage.bptree import INTERNAL_CAPACITY, LEAF_CAPACITY
from repro.storage.record import encode_key, encode_value


def _key(i: int) -> bytes:
    return encode_key(i // 100, i % 100)


def _value(i: int) -> bytes:
    return encode_value(float(i), float(-i))


@pytest.fixture()
def tree(tmp_path):
    t = BPlusTree(str(tmp_path / "tree.db"))
    yield t
    t.close()


class TestBasics:
    def test_empty_tree(self, tree):
        assert len(tree) == 0
        assert tree.get(_key(1)) is None
        assert tree.first_key() is None and tree.last_key() is None
        assert list(tree.range(_key(0), _key(100))) == []

    def test_insert_get(self, tree):
        tree.put(_key(5), _value(5))
        assert tree.get(_key(5)) == _value(5)
        assert len(tree) == 1

    def test_overwrite(self, tree):
        tree.put(_key(5), _value(5))
        tree.put(_key(5), _value(99))
        assert tree.get(_key(5)) == _value(99)
        assert len(tree) == 1

    def test_capacities_sane(self):
        assert LEAF_CAPACITY >= 100
        assert INTERNAL_CAPACITY >= 100


class TestScale:
    def test_many_inserts_random_order(self, tree):
        n = 2000  # forces multiple leaf and internal splits
        order = list(range(n))
        random.Random(3).shuffle(order)
        for i in order:
            tree.put(_key(i), _value(i))
        assert len(tree) == n
        for i in random.Random(4).sample(range(n), 200):
            assert tree.get(_key(i)) == _value(i)

    def test_range_scan_is_sorted_and_complete(self, tree):
        n = 1500
        order = list(range(n))
        random.Random(5).shuffle(order)
        for i in order:
            tree.put(_key(i), _value(i))
        entries = list(tree.range(_key(0), _key(n)))
        assert len(entries) == n
        keys = [k for k, _ in entries]
        assert keys == sorted(keys)

    def test_partial_range(self, tree):
        for i in range(500):
            tree.put(_key(i), _value(i))
        got = [k for k, _ in tree.range(_key(100), _key(199))]
        assert got == [_key(i) for i in range(100, 200)]

    def test_bulk_load_equivalent_to_inserts(self, tmp_path):
        n = 3000
        loaded = BPlusTree(str(tmp_path / "bulk.db"))
        loaded.bulk_load((_key(i), _value(i)) for i in range(n))
        assert len(loaded) == n
        for i in random.Random(6).sample(range(n), 200):
            assert loaded.get(_key(i)) == _value(i)
        keys = [k for k, _ in loaded.range(_key(0), _key(n))]
        assert keys == [_key(i) for i in range(n)]
        loaded.close()

    def test_get_many_on_a_three_level_tree(self, tmp_path):
        n = 13_000  # more leaves than one internal node holds
        tree = BPlusTree(str(tmp_path / "deep.db"))
        tree.bulk_load((_key(i), _value(i)) for i in range(0, 2 * n, 2))
        assert tree._height == 3
        probes = [_key(i) for i in range(2 * n + 3)]
        expected = [_value(i) if i % 2 == 0 and i < 2 * n else None
                    for i in range(2 * n + 3)]
        assert tree.get_many(probes) == expected
        assert tree.get_many(probes[::97]) == expected[::97]
        tree.close()

    def test_bulk_load_rejects_unsorted(self, tree):
        with pytest.raises(ValueError):
            tree.bulk_load([(_key(2), _value(2)), (_key(1), _value(1))])

    def test_bulk_load_rejects_nonempty(self, tree):
        tree.put(_key(0), _value(0))
        with pytest.raises(ValueError):
            tree.bulk_load([(_key(1), _value(1))])

    def test_insert_after_bulk_load(self, tmp_path):
        tree = BPlusTree(str(tmp_path / "mix.db"))
        tree.bulk_load((_key(i), _value(i)) for i in range(0, 1000, 2))
        for i in range(1, 1000, 2):
            tree.put(_key(i), _value(i))
        keys = [k for k, _ in tree.range(_key(0), _key(1000))]
        assert keys == [_key(i) for i in range(1000)]
        tree.close()


class TestPersistence:
    def test_reopen_preserves_contents(self, tmp_path):
        path = str(tmp_path / "persist.db")
        tree = BPlusTree(path)
        for i in range(300):
            tree.put(_key(i), _value(i))
        tree.close()
        reopened = BPlusTree(path)
        assert len(reopened) == 300
        assert reopened.get(_key(123)) == _value(123)
        reopened.close()

    def test_magic_check(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_bytes(bytes(4096))
        with pytest.raises(ValueError):
            BPlusTree(str(path))

    def test_first_last_key(self, tree):
        for i in (5, 2, 9):
            tree.put(_key(i), _value(i))
        assert tree.first_key() == _key(2)
        assert tree.last_key() == _key(9)


class TestModelBased:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete"]),
                st.integers(0, 400),  # first key of the op's run
                st.integers(1, 80),  # run length: long runs split leaves
                st.integers(0, 10_000),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_behaves_like_a_dict(self, tmp_path_factory, operations):
        """Model-based: the tree must agree with a plain dict under inserts
        (including overwrites) and deletes, for gets, batched gets over
        present and absent keys, and full scans, after every step."""
        directory = tmp_path_factory.mktemp("model")
        tree = BPlusTree(str(directory / "model.db"))
        model = {}
        try:
            for kind, first, length, value_seed in operations:
                for i in range(first, first + length):
                    if kind == "insert":
                        tree.put(_key(i), _value(value_seed + i))
                        model[_key(i)] = _value(value_seed + i)
                    else:
                        assert tree.delete(_key(i)) == (model.pop(_key(i), None)
                                                        is not None)
                probes = sorted(set(model) | {_key(i) for i in range(0, 500, 7)})
                assert tree.get_many(probes) == [model.get(k) for k in probes]
            assert len(tree) == len(model)
            for key, value in model.items():
                assert tree.get(key) == value
            scanned = dict(tree.range(_key(0), _key(500)))
            assert scanned == model
        finally:
            tree.close()
