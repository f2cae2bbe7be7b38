"""Store-level integration: every backend serves identical mining results."""

import random

import pytest

from repro.core import ConvoyQuery, K2Hop
from repro.data import Dataset, plant_convoys
from repro.storage import FlatFileStore, LSMTStore, MemoryStore, RelationalStore


@pytest.fixture(scope="module")
def workload():
    return plant_convoys(
        n_convoys=2, convoy_size=4, convoy_duration=16, n_noise=15,
        duration=48, seed=2,
    )


@pytest.fixture(scope="module")
def query(workload):
    return ConvoyQuery(m=3, k=8, eps=workload.eps)


@pytest.fixture(scope="module")
def expected(workload, query):
    return K2Hop(query).mine(workload.dataset).convoys


class TestMemoryStore:
    def test_same_results_as_dataset(self, workload, query, expected):
        store = MemoryStore(workload.dataset)
        assert K2Hop(query).mine(store).convoys == expected

    def test_counts_accesses(self, workload, query):
        store = MemoryStore(workload.dataset)
        K2Hop(query).mine(store)
        assert store.stats.range_scans > 0
        assert store.stats.point_queries > 0


class TestRelationalStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel.db"), workload.dataset)
        try:
            assert K2Hop(query).mine(store).convoys == expected
        finally:
            store.close()

    def test_snapshot_matches_dataset(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel2.db"), workload.dataset)
        try:
            t = workload.dataset.start_time + 3
            s_oids, s_xs, _ = store.snapshot(t)
            d_oids, d_xs, _ = workload.dataset.snapshot(t)
            assert s_oids.tolist() == d_oids.tolist()
            assert s_xs.tolist() == d_xs.tolist()
        finally:
            store.close()

    def test_points_for_matches_dataset(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel3.db"), workload.dataset)
        try:
            t = workload.dataset.start_time + 5
            subset = workload.dataset.objects()[:4].tolist()
            s_oids, _, _ = store.points_for(t, subset)
            d_oids, _, _ = workload.dataset.points_for(t, subset)
            assert s_oids.tolist() == d_oids.tolist()
        finally:
            store.close()

    def test_time_bounds(self, workload, tmp_path):
        store = RelationalStore.create(str(tmp_path / "rel4.db"), workload.dataset)
        try:
            assert store.start_time == workload.dataset.start_time
            assert store.end_time == workload.dataset.end_time
            assert store.num_points == workload.dataset.num_points
        finally:
            store.close()

    def test_incremental_insert(self, tmp_path):
        store = RelationalStore(str(tmp_path / "inc.db"))
        try:
            store.insert(oid=3, t=7, x=1.5, y=2.5)
            oids, xs, ys = store.snapshot(7)
            assert oids.tolist() == [3]
            assert xs[0] == 1.5 and ys[0] == 2.5
        finally:
            store.close()

    def test_reports_physical_io(self, workload, query, tmp_path):
        store = RelationalStore.create(
            str(tmp_path / "rel5.db"), workload.dataset, pool_pages=4
        )
        try:
            store.stats.reset()
            K2Hop(query).mine(store)
            # With a 4-page pool the tree cannot stay cached.
            assert store.stats.pages_read > 0
            assert store.stats.seeks > 0
        finally:
            store.close()


class TestLSMTStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm"), workload.dataset)
        try:
            assert K2Hop(query).mine(store).convoys == expected
        finally:
            store.close()

    def test_bounds_and_count(self, workload, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm2"), workload.dataset)
        try:
            assert store.num_points == workload.dataset.num_points
            assert store.start_time == workload.dataset.start_time
            assert store.end_time == workload.dataset.end_time
        finally:
            store.close()

    def test_incremental_insert_visible(self, tmp_path):
        store = LSMTStore(str(tmp_path / "lsm3"))
        try:
            store.insert(oid=1, t=3, x=1.0, y=2.0)
            store.insert(oid=2, t=3, x=1.5, y=2.5)
            oids, _, _ = store.snapshot(3)
            assert oids.tolist() == [1, 2]
        finally:
            store.close()

    def test_reports_physical_io(self, workload, query, tmp_path):
        store = LSMTStore.create(str(tmp_path / "lsm4"), workload.dataset)
        try:
            store.stats.reset()
            K2Hop(query).mine(store)
            assert store.stats.bytes_read > 0
            assert store.stats.seeks > 0
        finally:
            store.close()


def _updated_store(kind, workload, tmp_path):
    """A bulk-loaded store with inserts on top, and the dataset it holds.

    Every fifth row is overwritten and every tick gains a new object.  On
    the LSM store that leaves the rows in a memtable over two runs.
    """
    dataset = workload.dataset
    rows = {
        (int(t), int(oid)): (float(x), float(y))
        for oid, t, x, y in zip(dataset.oids, dataset.ts, dataset.xs, dataset.ys)
    }
    new_oid = int(dataset.oids.max()) + 1
    updates = [(t, oid, x + 0.5, -y) for (t, oid), (x, y) in sorted(rows.items())[::5]]
    updates += [(int(t), new_oid, 1.0, float(t)) for t in dataset.timestamps()]
    half = len(updates) // 2
    if kind == "rdbms":
        store = RelationalStore.create(str(tmp_path / "upd.db"), dataset)
    else:
        store = LSMTStore.create(str(tmp_path / "upd"), dataset)
    for i, (t, oid, x, y) in enumerate(updates):
        store.insert(oid=oid, t=t, x=x, y=y)
        rows[(t, oid)] = (x, y)
        if kind == "lsmt" and i == half:
            store.flush()
    if kind == "lsmt":
        assert len(store._tree._runs) >= 2 and len(store._tree._memtable)
    merged = Dataset.from_records(
        [(oid, t, x, y) for (t, oid), (x, y) in rows.items()]
    )
    return store, merged


def _assert_same_rows(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype
        assert g.tolist() == e.tolist()


@pytest.mark.parametrize("kind", ["rdbms", "lsmt"])
class TestKeyedAccess:
    """Batched per-tick lookups agree with the in-memory dataset."""

    def test_points_for_matches_dataset(self, kind, workload, tmp_path):
        store, merged = _updated_store(kind, workload, tmp_path)
        objects = merged.objects().tolist()
        absent = [max(objects) + 1, max(objects) + 1000]
        rng = random.Random(11)
        try:
            for t in merged.timestamps().tolist():
                # Whole ticks cross leaf and block boundaries.
                for wanted in (objects + absent, rng.sample(objects, 5) + absent,
                               absent, []):
                    _assert_same_rows(store.points_for(t, wanted),
                                      merged.points_for(t, wanted))
            ts = merged.timestamps().tolist()[::3]
            for wanted in (objects, rng.sample(objects, 7) + absent, []):
                got = store.points_for_many(ts, wanted)
                expected = merged.points_for_many(ts, wanted)
                assert got.keys() == expected.keys()
                for t in ts:
                    _assert_same_rows(got[t], expected[t])
        finally:
            store.close()

    def test_snapshot_matches_dataset(self, kind, workload, tmp_path):
        store, merged = _updated_store(kind, workload, tmp_path)
        try:
            for t in merged.timestamps().tolist():
                _assert_same_rows(store.snapshot(t), merged.snapshot(t))
        finally:
            store.close()

    def test_point_queries_count_distinct_keys(self, kind, workload, tmp_path):
        """One ``points_for`` adds one point query per distinct object asked
        for, present or not."""
        store, merged = _updated_store(kind, workload, tmp_path)
        t = int(merged.start_time) + 2
        wanted = merged.objects().tolist()[:6] * 2 + [10**6, 10**6]
        try:
            before = store.stats.point_queries
            store.points_for(t, wanted)
            assert store.stats.point_queries - before == len(set(wanted))
            before = store.stats.point_queries
            store.points_for(t, [])
            assert store.stats.point_queries == before
        finally:
            store.close()


class TestFlatFileStore:
    def test_same_results(self, workload, query, expected, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat.bin"), workload.dataset)
        assert K2Hop(query).mine(store).convoys == expected

    def test_one_full_scan_then_memory(self, workload, query, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat2.bin"), workload.dataset)
        K2Hop(query).mine(store)
        assert store.stats.full_scans == 1  # single cold scan

    def test_num_points_from_file_size(self, workload, tmp_path):
        store = FlatFileStore.create(str(tmp_path / "flat3.bin"), workload.dataset)
        assert store.num_points == workload.dataset.num_points
