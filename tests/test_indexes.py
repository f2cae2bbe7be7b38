"""Neighbor search: the CSR builder's grid path agrees with brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering import BruteForceIndex, build_neighbor_csr
from repro.clustering.csr import DENSE_THRESHOLD
from repro.clustering.neighbors import pairwise_neighbor_lists

coords = arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-100, 100, allow_nan=False, width=32),
)


def _points(seed, n=60, extent=50.0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, extent, size=(n, 2))
    return pts[:, 0], pts[:, 1]


class TestBruteForceIndex:
    def test_includes_self(self):
        xs, ys = np.array([0.0, 10.0]), np.array([0.0, 0.0])
        index = BruteForceIndex(xs, ys)
        assert 0 in index.neighbors(0, 1.0)

    def test_boundary_is_inclusive(self):
        xs, ys = np.array([0.0, 3.0]), np.array([0.0, 4.0])
        index = BruteForceIndex(xs, ys)
        assert set(index.neighbors(0, 5.0).tolist()) == {0, 1}
        assert set(index.neighbors(0, 4.999).tolist()) == {0}

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BruteForceIndex(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("eps", [1.0, 5.0, 20.0])
def test_csr_grid_path_matches_brute_force(seed, eps):
    # Enough points to take the grid-stencil path, not the dense one.
    xs, ys = _points(seed, n=2 * DENSE_THRESHOLD)
    _assert_csr_matches_brute_force(xs, ys, eps)


def _assert_csr_matches_brute_force(xs, ys, eps, rows=None):
    indptr, indices = build_neighbor_csr(xs, ys, eps)
    brute = BruteForceIndex(xs, ys)
    for i in range(len(xs)) if rows is None else rows:
        row = indices[indptr[i] : indptr[i + 1]]
        assert row.tolist() == brute.neighbors(i, eps).tolist()


def test_csr_grid_path_handles_duplicates():
    # A stacked block of identical coordinates inside a grid-sized cloud:
    # every copy shares one cell and must see all the others.
    xs, ys = _points(1, n=DENSE_THRESHOLD + 20)
    xs[:12], ys[:12] = 1.0, 2.0
    indptr, indices = build_neighbor_csr(xs, ys, 0.1)
    assert set(range(12)) <= set(indices[indptr[0] : indptr[1]].tolist())
    _assert_csr_matches_brute_force(xs, ys, 0.1)


def test_csr_grid_path_large_set_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 1000, size=(5000, 2))
    _assert_csr_matches_brute_force(
        pts[:, 0], pts[:, 1], 30.0, rows=range(0, len(pts), 97)
    )


@pytest.mark.parametrize("eps", [0.0, -1.0, float("nan")])
def test_csr_rejects_nonpositive_eps(eps):
    xs, ys = _points(0, n=DENSE_THRESHOLD + 1)
    with pytest.raises(ValueError, match="eps must be positive"):
        build_neighbor_csr(xs, ys, eps)


@given(st.integers(0, 10_000), st.floats(0.5, 30.0))
@settings(max_examples=25, deadline=None)
def test_property_csr_grid_path_and_brute_force_agree(seed, eps):
    xs, ys = _points(seed, n=DENSE_THRESHOLD + 10)
    _assert_csr_matches_brute_force(xs, ys, eps)


def test_pairwise_helper_symmetry():
    xs, ys = _points(3, n=25)
    lists = pairwise_neighbor_lists(xs, ys, 10.0)
    for i, neighbors in enumerate(lists):
        for j in neighbors.tolist():
            assert i in lists[j].tolist()
