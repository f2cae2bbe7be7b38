"""Persistent convoy index: encodings, backends, maximality, reopening."""

import random

import pytest

from repro.core import Convoy
from repro.service import ConvoyIndex, ResultBackend, open_backend
from repro.service.records import (
    decode_result_key,
    member_chunks,
    result_key,
    tag_range,
    unpack_members,
)


class TestRecords:
    @pytest.mark.parametrize(
        "tag,a,b", [(1, 0, 0), (4, 17, 3), (5, 2**40, 2**61)]
    )
    def test_key_round_trip(self, tag, a, b):
        assert decode_result_key(result_key(tag, a, b)) == (tag, a, b)

    def test_key_order_matches_tuple_order(self):
        keys = [
            result_key(1, 5, 9),
            result_key(1, 6, 0),
            result_key(2, 0, 0),
            result_key(4, 100, 2),
            result_key(4, 100, 3),
        ]
        assert keys == sorted(keys)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ValueError):
            result_key(1, 1 << 48, 0)
        with pytest.raises(ValueError):
            result_key(1, 0, -1)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_member_chunks_round_trip(self, n):
        members = tuple(range(10, 10 + 3 * n, 3))
        rows = list(member_chunks(members))
        assert unpack_members(v for _, v in rows) == members
        assert len(rows) == (n + 1) // 2

    def test_tag_range_brackets_only_that_tag(self):
        lo, hi = tag_range(4)
        assert decode_result_key(lo)[0] == 4
        assert lo < result_key(4, 17, 3) < hi < result_key(5, 0, 0)


def _backend(kind, tmp_path):
    if kind == "memory":
        return open_backend("memory")
    if kind == "bptree":
        return open_backend("bptree", str(tmp_path / "convoys.bpt"))
    return open_backend("lsmt", str(tmp_path / "convoys.lsm"))


@pytest.mark.parametrize("kind", ["memory", "bptree", "lsmt"])
class TestResultBackendProtocol:
    """Every kind ``open_backend`` returns answers the same verbs the same way."""

    def test_meets_the_protocol(self, kind, tmp_path):
        backend = _backend(kind, tmp_path)
        assert isinstance(backend, ResultBackend)
        backend.close()

    def test_behaves_like_a_sorted_dict(self, kind, tmp_path):
        rng = random.Random(7)
        backend = _backend(kind, tmp_path)
        model = {}
        # Enough keys that B+tree leaves split; flushes put LSM runs under
        # the memtable so later overwrites and deletes shadow older rows.
        for step in range(1200):
            key = rng.randrange(500).to_bytes(16, "big")
            if rng.random() < 0.25:
                backend.delete(key)
                model.pop(key, None)
            else:
                value = step.to_bytes(16, "big")
                backend.put(key, value)
                model[key] = value
            if step % 300 == 299:
                backend.flush()
        for i in range(520):
            key = i.to_bytes(16, "big")
            assert backend.get(key) == model.get(key)
        for lo, hi in [(0, 499), (17, 17), (100, 260), (480, 600), (300, 200)]:
            lo_key, hi_key = lo.to_bytes(16, "big"), hi.to_bytes(16, "big")
            expected = sorted((k, v) for k, v in model.items() if lo_key <= k <= hi_key)
            assert list(backend.range(lo_key, hi_key)) == expected
        backend.close()



@pytest.mark.parametrize("kind", ["bptree", "lsmt"])
def test_rows_survive_flush_and_close(kind, tmp_path):
    backend = _backend(kind, tmp_path)
    key, value = (5).to_bytes(16, "big"), (6).to_bytes(16, "big")
    backend.put(key, value)
    backend.delete((9).to_bytes(16, "big"))
    backend.flush()
    backend.close()
    reopened = _backend(kind, tmp_path)
    assert reopened.get(key) == value
    assert list(reopened.range(bytes(16), b"\xff" * 16)) == [(key, value)]
    reopened.close()


@pytest.mark.parametrize("kind", ["bptree", "lsmt"])
def test_open_backend_needs_a_path(kind):
    with pytest.raises(ValueError, match="needs a path"):
        open_backend(kind)


@pytest.mark.parametrize("kind", ["bptree", "lsmt"])
def test_open_backend_creates_missing_parent_directories(kind, tmp_path):
    path = tmp_path / "a" / "b" / "convoys"
    backend = open_backend(kind, str(path))
    backend.put(b"k" * 16, b"v" * 16)
    backend.flush()
    backend.close()
    assert path.exists()


def test_open_backend_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown backend"):
        open_backend("sqlite", str(tmp_path / "x"))


@pytest.mark.parametrize("kind", ["memory", "bptree", "lsmt"])
class TestConvoyIndexBackends:
    def test_add_and_query_paths(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        a = Convoy.of([1, 2, 3], 0, 9)
        b = Convoy.of([2, 4], 5, 20)
        index.add(a, bbox=(0.0, 0.0, 10.0, 10.0))
        index.add(b)
        assert len(index) == 2
        assert index.convoys() == [a, b]
        assert sorted(index.ids_overlapping(8, 12)) == [0, 1]
        assert index.ids_overlapping(10, 12) == [1]
        assert index.ids_of_object(2) == [0, 1]
        assert index.ids_of_object(4) == [1]
        assert index.ids_containing([2, 3]) == [0]
        assert index.ids_in_region((5.0, 5.0, 20.0, 20.0)) == [0]
        index.close()

    def test_subsumed_insert_is_dropped(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        big = Convoy.of([1, 2, 3], 0, 10)
        assert index.add(big) is not None
        version = index.version
        assert index.add(Convoy.of([1, 2], 2, 8)) is None
        assert index.version == version  # nothing changed
        assert index.convoys() == [big]
        index.close()

    def test_subsuming_insert_evicts(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        index.add(Convoy.of([1, 2], 2, 8), bbox=(0, 0, 1, 1))
        bigger = Convoy.of([1, 2, 3], 0, 10)
        index.add(bigger)
        assert index.convoys() == [bigger]
        assert index.ids_of_object(1) == [1]
        # Backend rows of the evicted convoy are gone too.
        assert index.scan_object(1) == [1]
        assert index.scan_overlapping(0, 100) == [1]
        index.close()

    def test_out_of_domain_convoy_rejected_before_any_write(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        with pytest.raises(ValueError):
            index.add(Convoy.of([1, 2], -20, -5))
        with pytest.raises(ValueError):
            index.add(Convoy.of([-1, 2], 0, 5))
        # Nothing was half-written: a cold reopen sees an empty store.
        assert len(index) == 0
        assert index.scan_overlapping(0, 2**40) == []
        index.close()

    def test_containing_unknown_oid_does_not_grow_interner(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        index.add(Convoy.of([1, 2, 3], 0, 9))
        interned = len(index._interner)
        assert index.ids_containing([1, 999]) == []
        assert len(index._interner) == interned
        index.close()

    def test_scan_paths_agree_with_hot_paths(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        convoys = [
            Convoy.of([1, 2, 3], 0, 9),
            Convoy.of([4, 5], 3, 12),
            Convoy.of([1, 5, 9], 20, 30),
        ]
        for convoy in convoys:
            index.add(convoy)
        assert sorted(index.scan_overlapping(5, 25)) == sorted(
            index.ids_overlapping(5, 25)
        )
        for oid in (1, 5, 9):
            assert index.scan_object(oid) == index.ids_of_object(oid)
        index.close()


@pytest.mark.parametrize("kind", ["bptree", "lsmt"])
class TestPersistence:
    def test_reopen_round_trip(self, kind, tmp_path):
        convoys = [
            Convoy.of([1, 2, 3], 0, 9),
            Convoy.of([7, 8, 9, 10, 11], 4, 40),  # odd + even member chunks
            Convoy.of([2, 7], 50, 60),
        ]
        index = ConvoyIndex(_backend(kind, tmp_path))
        index.add(convoys[0], bbox=(1.0, 2.0, 3.0, 4.0))
        index.add(convoys[1])
        index.add(convoys[2])
        index.flush()
        index.close()

        reopened = ConvoyIndex(_backend(kind, tmp_path))
        assert reopened.convoys() == sorted(
            convoys, key=lambda c: (c.start, c.end)
        )
        assert reopened.get(0).bbox == (1.0, 2.0, 3.0, 4.0)
        assert reopened.get(1).bbox is None
        assert reopened.ids_of_object(7) == [1, 2]
        assert reopened.ids_containing([7, 8]) == [1]
        # New inserts continue the id sequence.
        assert reopened.add(Convoy.of([100, 101], 70, 90)) == 3
        reopened.close()

    def test_create_index_refuses_mismatched_reopen(self, kind, tmp_path):
        from repro.core import ConvoyQuery
        from repro.service import create_index, open_index

        path = str(tmp_path / "catalog")
        query = ConvoyQuery(m=3, k=10, eps=5.0)
        index = create_index(path, kind, query)
        index.add(Convoy.of([1, 2, 3], 0, 9))
        index.close()
        # Same params: reopens fine, data intact.
        again = create_index(path, kind, query)
        assert len(again) == 1
        again.close()
        # Different query params: refused, data untouched.
        with pytest.raises(ValueError):
            create_index(path, kind, ConvoyQuery(m=5, k=20, eps=3.0))
        reopened, stored_query = open_index(path)
        assert stored_query == query and len(reopened) == 1
        reopened.close()

    def test_eviction_survives_reopen(self, kind, tmp_path):
        index = ConvoyIndex(_backend(kind, tmp_path))
        index.add(Convoy.of([1, 2], 2, 8))
        index.add(Convoy.of([1, 2, 3], 0, 10))  # evicts the first
        index.flush()
        index.close()
        reopened = ConvoyIndex(_backend(kind, tmp_path))
        assert reopened.convoys() == [Convoy.of([1, 2, 3], 0, 10)]
        reopened.close()
