"""Vectorized engine == scalar oracles, property-tested across random seeds.

The contract for the CSR + union-find clustering engine and the bitset
convoy algebra is *byte-identical output*: identical label arrays,
identical Definition-2 cluster lists (including shared-border-point and
duplicate-coordinate cases), identical convoys from the bitset sweep and
merge, and end-to-end k/2-hop results identical to the brute-force
subset-enumeration oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import (
    build_neighbor_csr,
    cluster_snapshot,
    csr_degrees,
    dbscan_labels,
    dbscan_labels_scalar,
    dbscan_reference,
    density_cluster_indices,
    density_cluster_indices_scalar,
)
from repro.clustering.unionfind import UnionFind
from repro.baselines import mine_oracle
from repro.core import ConvoyQuery, K2Hop, sort_convoys
from repro.core.bitset import ObjectInterner, is_submask, mask_size
from repro.core.candidates import (
    intersect_cluster_sets,
    intersect_cluster_sets_scalar,
)
from repro.core.merge import (
    merge_spanning_convoys,
    merge_spanning_convoys_scalar,
)
from repro.core.sweep import sweep_restricted, sweep_restricted_scalar
from repro.core.types import Convoy
from repro.data import random_walk_dataset


def _random_cloud(seed, max_n=160, extent=50.0):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, max_n))
    xs = rng.uniform(0, extent, n)
    ys = rng.uniform(0, extent, n)
    if seed % 3 == 0 and n > 4:
        # Duplicate-coordinate block: several objects stacked on one spot.
        xs[: n // 3] = xs[0]
        ys[: n // 3] = ys[0]
    return xs, ys


class TestCsrIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_csr_matches_brute_force_neighborhoods(self, seed):
        xs, ys = _random_cloud(seed)
        eps = 4.0
        indptr, indices = build_neighbor_csr(xs, ys, eps)
        n = len(xs)
        assert len(indptr) == n + 1
        dx = xs[:, None] - xs[None, :]
        dy = ys[:, None] - ys[None, :]
        within = dx * dx + dy * dy <= eps * eps
        for i in range(n):
            row = indices[indptr[i] : indptr[i + 1]]
            assert row.tolist() == np.flatnonzero(within[i]).tolist()

    def test_degrees_are_self_inclusive(self):
        xs = np.array([0.0, 100.0])
        indptr, _ = build_neighbor_csr(xs, np.zeros(2), 1.0)
        assert csr_degrees(indptr).tolist() == [1, 1]

    def test_empty(self):
        indptr, indices = build_neighbor_csr(np.empty(0), np.empty(0), 1.0)
        assert indptr.tolist() == [0] and len(indices) == 0


class TestUnionFind:
    def test_components_numbered_by_first_occurrence(self):
        uf = UnionFind(6)
        uf.union(4, 5)
        uf.union(0, 2)
        ids, count = uf.component_ids([0, 1, 2, 4, 5])
        assert ids == [0, 1, 0, 2, 2] and count == 3

    def test_union_reports_novelty(self):
        uf = UnionFind(3)
        assert uf.union(0, 1) is True
        assert uf.union(1, 0) is False
        assert uf.connected(0, 1)


class TestClusteringEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("eps,m", [(3.0, 3), (6.0, 4), (1.5, 2)])
    def test_labels_identical_to_scalar(self, seed, eps, m):
        xs, ys = _random_cloud(seed)
        vectorized = dbscan_labels(xs, ys, eps, m)
        scalar = dbscan_labels_scalar(xs, ys, eps, m)
        assert (vectorized == scalar).all()

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("eps,m", [(3.0, 3), (6.0, 4), (1.5, 2)])
    def test_definition2_clusters_identical_to_scalar(self, seed, eps, m):
        xs, ys = _random_cloud(seed)
        assert density_cluster_indices(xs, ys, eps, m) == (
            density_cluster_indices_scalar(xs, ys, eps, m)
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_property_labels_match_reference_partition(self, seed):
        xs, ys = _random_cloud(seed, max_n=60, extent=35.0)
        eps, m = 5.0, 3
        vectorized = dbscan_labels(xs, ys, eps, m)
        reference = dbscan_reference(xs, ys, eps, m)
        assert (vectorized == reference).all() or _same_core_partition(
            xs, ys, vectorized, reference, eps, m
        )

    @given(st.integers(0, 100_000))
    @settings(max_examples=40, deadline=None)
    def test_property_clusters_identical_across_engines(self, seed):
        xs, ys = _random_cloud(seed, max_n=90, extent=35.0)
        for eps, m in [(4.0, 3), (8.0, 5)]:
            assert density_cluster_indices(xs, ys, eps, m) == (
                density_cluster_indices_scalar(xs, ys, eps, m)
            )

    def test_shared_border_point_joins_both_clusters(self):
        xs = np.array([0.0, 1.0, 2.0, 8.0, 9.0, 10.0, 5.0])
        ys = np.zeros(7)
        clusters = cluster_snapshot(range(7), xs, ys, eps=3.0, m=4)
        assert frozenset({0, 1, 2, 6}) in clusters
        assert frozenset({3, 4, 5, 6}) in clusters

    def test_duplicate_coordinates_cluster_together(self):
        xs = np.zeros(5)
        ys = np.zeros(5)
        assert cluster_snapshot([7, 8, 9, 10, 11], xs, ys, 1.0, 3) == [
            frozenset({7, 8, 9, 10, 11})
        ]


def _same_core_partition(xs, ys, a, b, eps, m):
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adjacent = dx * dx + dy * dy <= eps * eps
    core = adjacent.sum(axis=1) >= m

    def partition(labels):
        groups = {}
        for i in np.flatnonzero(core):
            groups.setdefault(int(labels[i]), set()).add(int(i))
        return frozenset(frozenset(g) for g in groups.values())

    return partition(a) == partition(b)


class TestBitset:
    def test_roundtrip(self):
        interner = ObjectInterner()
        mask = interner.mask_of({100, 3, 77})
        assert mask_size(mask) == 3
        assert interner.cluster_of(mask) == frozenset({100, 3, 77})

    def test_algebra_matches_set_algebra(self):
        rng = np.random.default_rng(0)
        interner = ObjectInterner()
        for _ in range(200):
            a = frozenset(rng.integers(0, 60, rng.integers(0, 12)).tolist())
            b = frozenset(rng.integers(0, 60, rng.integers(0, 12)).tolist())
            ma, mb = interner.mask_of(a), interner.mask_of(b)
            assert interner.cluster_of(ma & mb) == a & b
            assert mask_size(ma & mb) == len(a & b)
            assert is_submask(ma, mb) == (a <= b)
            assert (ma == mb) == (a == b)

    def test_interner_is_stable_across_calls(self):
        interner = ObjectInterner()
        first = interner.mask_of([5, 6])
        interner.mask_of([99, 5])
        assert interner.mask_of([6, 5]) == first


class TestConvoyAlgebraEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_intersect_cluster_sets_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        left = [
            frozenset(rng.integers(0, 40, rng.integers(2, 10)).tolist())
            for _ in range(rng.integers(0, 6))
        ]
        right = [
            frozenset(rng.integers(0, 40, rng.integers(2, 10)).tolist())
            for _ in range(rng.integers(0, 6))
        ]
        for m in (2, 3, 5):
            assert intersect_cluster_sets(left, right, m) == (
                intersect_cluster_sets_scalar(left, right, m)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_merge_matches_scalar(self, seed):
        rng = np.random.default_rng(seed)
        windows = []
        for w in range(4):
            convoys = [
                Convoy.of(
                    rng.integers(0, 25, rng.integers(2, 8)).tolist(), w, w + 1
                )
                for _ in range(rng.integers(0, 5))
            ]
            windows.append(convoys)
        assert sort_convoys(merge_spanning_convoys(windows, 2)) == (
            sort_convoys(merge_spanning_convoys_scalar(windows, 2))
        )

    def test_merge_reproduces_paper_table3(self):
        def window(span, *object_sets):
            start, end = span
            return [Convoy.of(objs, start, end) for objs in object_sets]

        windows = [
            window((0, 1), "abcd", "efgh", "ijk"),
            window((1, 2), "abcd", "ef", "gh"),
            window((2, 3), "abef", "cdgh", "ijk"),
            window((3, 4), "ab", "cd", "ef", "gh", "cdgh"),
        ]
        assert set(merge_spanning_convoys(windows, 2)) == set(
            merge_spanning_convoys_scalar(windows, 2)
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_sweep_matches_scalar(self, seed):
        ds = random_walk_dataset(
            n_objects=8, duration=15, extent=45.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=4, eps=12.0)
        vectorized = sweep_restricted(ds, None, ds.start_time, ds.end_time, query)
        scalar = sweep_restricted_scalar(
            ds, None, ds.start_time, ds.end_time, query
        )
        assert sort_convoys(vectorized) == sort_convoys(scalar)

    @pytest.mark.parametrize("seed", range(4))
    def test_restricted_sweep_matches_scalar(self, seed):
        ds = random_walk_dataset(
            n_objects=10, duration=12, extent=40.0, step=7.0, seed=seed
        )
        query = ConvoyQuery(m=2, k=3, eps=10.0)
        objects = [0, 2, 4, 6, 8]
        vectorized = sweep_restricted(ds, objects, 2, 9, query)
        scalar = sweep_restricted_scalar(ds, objects, 2, 9, query)
        assert sort_convoys(vectorized) == sort_convoys(scalar)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_k2hop_identical_across_engines(self, seed):
        ds = random_walk_dataset(
            n_objects=10, duration=24, extent=50.0, step=8.0, seed=seed
        )
        query = ConvoyQuery(m=3, k=6, eps=12.0)
        mined = K2Hop(query).mine(ds).convoys
        assert sort_convoys(mined) == sort_convoys(mine_oracle(ds, query))

    def test_degenerate_k_identical_across_engines(self):
        ds = random_walk_dataset(
            n_objects=7, duration=10, extent=30.0, step=6.0, seed=11
        )
        query = ConvoyQuery(m=2, k=1, eps=10.0)
        mined = K2Hop(query).mine(ds).convoys
        assert sort_convoys(mined) == sort_convoys(mine_oracle(ds, query))
