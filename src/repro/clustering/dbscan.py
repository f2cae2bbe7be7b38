"""From-scratch DBSCAN (Ester et al. 1996) on batch CSR neighborhoods.

Semantics match the paper exactly:

* the eps-neighborhood of ``p`` includes ``p`` itself;
* ``p`` is a core point when ``|NH(p, eps)| >= m``;
* clusters are maximal density-connected sets and include border points;
* only clusters with at least ``m`` members are returned (``(m,eps)``-clusters
  per Definition 2 — a cluster necessarily has >= m members because it
  contains a core point's whole neighborhood).

The main entry point, :func:`cluster_snapshot`, clusters the objects present
at a single timestamp and returns clusters as frozen sets of *object ids*
(not positional indices), which is the currency of every convoy miner here.

Clustering runs on a single-pass CSR neighborhood builder
(:mod:`repro.clustering.csr`) feeding a union-find connected-components
pass over core points — no per-point index queries.  The original
per-point BFS survives as :func:`dbscan_labels_scalar` and
:func:`density_cluster_indices_scalar`, brute-force test oracles;
``tests/test_vectorized_engine.py`` asserts identical labels and
Definition-2 cluster lists across random inputs, duplicates, and
shared-border-point cases.
"""

from __future__ import annotations

from collections import deque
from typing import List, Sequence, Tuple

import numpy as np

from ..core.types import Cluster
from .csr import build_neighbor_csr, check_eps, csr_degrees
from .neighbors import BruteForceIndex
from .unionfind import UnionFind

# Label values used internally.
_UNVISITED = -2
_NOISE = -1


# ---------------------------------------------------------------------------
# Shared vectorized substrate: CSR neighborhoods + union-find components
# ---------------------------------------------------------------------------


def _core_components(xs, ys, eps, min_pts):
    """CSR adjacency, core mask, and per-core component ids.

    Components of the core-point graph are numbered by their smallest core
    index, which is exactly the discovery order of a seed-scan BFS — the
    invariant both scalar implementations expose through their output
    ordering.

    Returns ``(rows, cols, core, core_ids, comp_of)`` where ``rows/cols``
    are the CSR edge endpoints and ``comp_of[i]`` is the component of core
    point ``i`` (or -1 for non-core points).
    """
    n = len(xs)
    indptr, cols = build_neighbor_csr(xs, ys, eps)
    degrees = csr_degrees(indptr)
    core = degrees >= min_pts
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    core_ids = np.flatnonzero(core)
    comp_of = np.full(n, -1, dtype=np.int64)
    if core_ids.size:
        finder = UnionFind(n)
        edge = core[rows] & core[cols]
        us, vs = rows[edge], cols[edge]
        forward = us < vs
        finder.union_edges(us[forward].tolist(), vs[forward].tolist())
        comp_ids, _ = finder.component_ids(core_ids.tolist())
        comp_of[core_ids] = np.asarray(comp_ids, dtype=np.int64)
    return rows, cols, core, core_ids, comp_of


# ---------------------------------------------------------------------------
# DBSCAN labelling
# ---------------------------------------------------------------------------


def dbscan_labels(
    xs: np.ndarray, ys: np.ndarray, eps: float, min_pts: int
) -> np.ndarray:
    """Label each point with its cluster id, or -1 for noise.

    Cluster ids are consecutive integers starting at 0, assigned in order of
    discovery (deterministic given input order).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    labels = np.full(n, _NOISE, dtype=np.int64)
    if n == 0:
        return labels
    rows, cols, core, core_ids, comp_of = _core_components(xs, ys, eps, min_pts)
    if not core_ids.size:
        return labels
    labels[core_ids] = comp_of[core_ids]
    # A border point takes the first-discovered cluster that reaches it,
    # i.e. the smallest component id among its core neighbors.
    border_edge = core[cols] & ~core[rows]
    if border_edge.any():
        sentinel = np.iinfo(np.int64).max
        best = np.full(n, sentinel, dtype=np.int64)
        np.minimum.at(best, rows[border_edge], comp_of[cols[border_edge]])
        reached = best < sentinel
        labels[reached] = best[reached]
    return labels


def dbscan_labels_scalar(
    xs: np.ndarray, ys: np.ndarray, eps: float, min_pts: int
) -> np.ndarray:
    """Scalar per-point BFS labelling over brute-force queries (test oracle)."""
    n = len(xs)
    labels = np.full(n, _UNVISITED, dtype=np.int64)
    if n == 0:
        return labels
    index = BruteForceIndex(xs, ys)
    cluster_id = 0
    for seed in range(n):
        if labels[seed] != _UNVISITED:
            continue
        seed_neighbors = index.neighbors(seed, eps)
        if len(seed_neighbors) < min_pts:
            labels[seed] = _NOISE
            continue
        # Grow a new cluster from this core point via BFS.
        labels[seed] = cluster_id
        queue = deque(int(j) for j in seed_neighbors if labels[j] == _UNVISITED)
        for j in seed_neighbors:
            if labels[j] in (_UNVISITED, _NOISE):
                labels[j] = cluster_id
        while queue:
            point = queue.popleft()
            neighborhood = index.neighbors(point, eps)
            if len(neighborhood) < min_pts:
                continue  # border point: joins, never expands
            for j in neighborhood:
                j = int(j)
                if labels[j] == _UNVISITED:
                    labels[j] = cluster_id
                    queue.append(j)
                elif labels[j] == _NOISE:
                    labels[j] = cluster_id
        cluster_id += 1
    return labels


# ---------------------------------------------------------------------------
# Definition-2 clusters (border points join every reachable cluster)
# ---------------------------------------------------------------------------

#: At or below this size the pure-Python pair loop beats numpy: the hop
#: windows re-cluster thousands of candidate sets of 3-30 points, where
#: ~n^2/2 float comparisons cost less than numpy's per-call dispatch
#: (measured crossover vs the CSR path: ~30 points; 24us vs 49us at n=24,
#: 60us vs 50us at n=32).
_TINY_THRESHOLD = 28


def _tiny_cluster_indices(
    xs: np.ndarray, ys: np.ndarray, eps: float, m: int
) -> List[List[int]]:
    """Allocation-free Definition-2 clustering for tiny snapshots.

    Same output as the CSR + union-find path (components numbered by their
    smallest core index; borders join every reachable component), but the
    whole adjacency fits in a few Python lists, so no numpy call overhead.
    """
    n = len(xs)
    eps2 = eps * eps
    xl = xs.tolist()
    yl = ys.tolist()
    # Together-group fast path: the hop windows mostly re-cluster candidates
    # that ARE still travelling together, so the bounding-box diagonal is
    # frequently <= eps — which makes every pair mutually within eps and the
    # answer a single all-core cluster, no adjacency needed.
    span_x = max(xl) - min(xl)
    span_y = max(yl) - min(yl)
    if span_x * span_x + span_y * span_y <= eps2:
        return [list(range(n))] if n >= m else []
    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        xi, yi, ai = xl[i], yl[i], adj[i]
        for j in range(i + 1, n):
            dx = xi - xl[j]
            dy = yi - yl[j]
            if dx * dx + dy * dy <= eps2:
                ai.append(j)
                adj[j].append(i)
    core = [len(adj[i]) + 1 >= m for i in range(n)]  # +1: self-inclusive NH
    comp = [-1] * n
    n_components = 0
    for seed in range(n):
        if not core[seed] or comp[seed] != -1:
            continue
        comp[seed] = n_components
        stack = [seed]
        while stack:
            p = stack.pop()
            for q in adj[p]:
                if core[q] and comp[q] == -1:
                    comp[q] = n_components
                    stack.append(q)
        n_components += 1
    clusters: List[List[int]] = [[] for _ in range(n_components)]
    for i in range(n):
        if core[i]:
            clusters[comp[i]].append(i)
        else:
            reachable = {comp[q] for q in adj[i] if core[q]}
            for c in reachable:
                clusters[c].append(i)
    return [sorted(cluster) for cluster in clusters if len(cluster) >= m]


def density_cluster_indices(
    xs: np.ndarray, ys: np.ndarray, eps: float, m: int
) -> List[List[int]]:
    """Maximal density-connected sets (Definition 2), as point-index lists.

    Unlike classic DBSCAN labelling, *border points join every cluster they
    are density-reachable from* — clusters may overlap on border points.
    This is required for exactness: assigning a shared border point to only
    one cluster can push the other below ``m`` members and silently destroy
    a convoy that Definition 3 admits.

    Each cluster is a connected component of the core-point graph plus all
    border points within ``eps`` of any of its cores.
    """
    check_eps(eps)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    if n == 0:
        return []
    if n <= _TINY_THRESHOLD:
        return _tiny_cluster_indices(xs, ys, eps, m)
    rows, cols, core, core_ids, comp_of = _core_components(xs, ys, eps, m)
    if not core_ids.size:
        return []
    clusters = _assemble_components(rows, cols, core, core_ids, comp_of)
    return [sorted(cluster) for cluster in clusters if len(cluster) >= m]


def _assemble_components(rows, cols, core, core_ids, comp_of) -> List[List[int]]:
    """Component member lists from the CSR core-component substrate.

    Core points go to their own component; border (or noise) points attach
    to every component owning a core point within eps — (point, component)
    pairs are deduplicated in bulk.  Shared by the mining path
    (:func:`density_cluster_indices`) and the service path
    (:func:`cluster_snapshot_with_cores`) so the two cannot drift.
    """
    n_components = int(comp_of[core_ids].max()) + 1
    clusters: List[List[int]] = [[] for _ in range(n_components)]
    for i, comp in zip(core_ids.tolist(), comp_of[core_ids].tolist()):
        clusters[comp].append(i)
    border_edge = core[cols] & ~core[rows]
    if border_edge.any():
        pair_keys = np.unique(
            rows[border_edge] * n_components + comp_of[cols[border_edge]]
        )
        for key in pair_keys.tolist():
            clusters[key % n_components].append(key // n_components)
    return clusters


def density_cluster_indices_scalar(
    xs: np.ndarray, ys: np.ndarray, eps: float, m: int
) -> List[List[int]]:
    """Scalar per-point BFS over brute-force queries (test oracle)."""
    n = len(xs)
    if n == 0:
        return []
    index = BruteForceIndex(xs, ys)
    neighbor_lists = [index.neighbors(i, eps) for i in range(n)]
    core = np.array([len(nl) >= m for nl in neighbor_lists], dtype=bool)
    component = np.full(n, -1, dtype=np.int64)
    n_components = 0
    for seed in range(n):
        if not core[seed] or component[seed] != -1:
            continue
        component[seed] = n_components
        queue = deque([seed])
        while queue:
            p = queue.popleft()
            for q in neighbor_lists[p]:
                q = int(q)
                if core[q] and component[q] == -1:
                    component[q] = n_components
                    queue.append(q)
        n_components += 1
    clusters: List[List[int]] = [[] for _ in range(n_components)]
    for i in range(n):
        if core[i]:
            clusters[component[i]].append(i)
        else:
            # Border (or noise) point: attach to every component owning a
            # core point within eps.
            seen_components = set()
            for q in neighbor_lists[i]:
                q = int(q)
                if core[q]:
                    seen_components.add(int(component[q]))
            for comp in seen_components:
                clusters[comp].append(i)
    return [sorted(cluster) for cluster in clusters if len(cluster) >= m]


def cluster_snapshot(
    oids: Sequence[int],
    xs: np.ndarray,
    ys: np.ndarray,
    eps: float,
    m: int,
) -> List[Cluster]:
    """(m,eps)-clusters of one snapshot, as frozen sets of object ids.

    ``oids[i]`` is the object whose position is ``(xs[i], ys[i])``.  The
    result is sorted by smallest member id so callers see a deterministic
    ordering.  Border points may appear in several clusters (see
    :func:`density_cluster_indices`).
    """
    check_eps(eps)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(oids) != len(xs):
        raise ValueError("oids and coordinates must have identical lengths")
    if len(oids) < m:
        return []
    member_lists = density_cluster_indices(xs, ys, eps, m)
    if not member_lists:
        return []
    if isinstance(oids, np.ndarray):
        oid_list = oids.tolist()
    else:
        oid_list = [int(oid) for oid in oids]
    clusters = [
        frozenset(oid_list[i] for i in members) for members in member_lists
    ]
    return sorted(clusters, key=lambda c: min(c))


def cluster_snapshot_with_cores(
    oids: Sequence[int],
    xs: np.ndarray,
    ys: np.ndarray,
    eps: float,
    m: int,
) -> List[Tuple[Cluster, Cluster]]:
    """Like :func:`cluster_snapshot`, but each cluster carries its core set.

    Returns ``(members, cores)`` pairs where ``cores`` are the members whose
    eps-neighborhood within *this* snapshot has at least ``m`` points.  The
    sharded ingest service needs the core sets: a point that is core in a
    shard's view is core globally (the view only ever under-counts
    neighborhoods), which is what makes cross-shard cluster reconciliation
    exact.
    """
    check_eps(eps)
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(oids) != len(xs):
        raise ValueError("oids and coordinates must have identical lengths")
    n = len(xs)
    if n < m:
        return []
    rows, cols, core, core_ids, comp_of = _core_components(xs, ys, eps, m)
    if not core_ids.size:
        return []
    members = _assemble_components(rows, cols, core, core_ids, comp_of)
    if isinstance(oids, np.ndarray):
        oid_list = oids.tolist()
    else:
        oid_list = [int(oid) for oid in oids]
    pairs = [
        (
            frozenset(oid_list[i] for i in cluster),
            frozenset(oid_list[i] for i in cluster if core[i]),
        )
        for cluster in members
        if len(cluster) >= m
    ]
    return sorted(pairs, key=lambda pair: min(pair[0]))


def dbscan_reference(
    xs: np.ndarray, ys: np.ndarray, eps: float, min_pts: int
) -> np.ndarray:
    """O(n^2) textbook DBSCAN used as the test oracle.

    Independent of the index machinery: computes the full distance matrix,
    derives core points, then finds connected components of the core graph
    and attaches border points to the cluster of *a* core neighbor (the
    first by index, matching discovery order of :func:`dbscan_labels`).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    labels = np.full(n, _NOISE, dtype=np.int64)
    if n == 0:
        return labels
    dx = xs[:, None] - xs[None, :]
    dy = ys[:, None] - ys[None, :]
    adjacent = dx * dx + dy * dy <= eps * eps
    core = adjacent.sum(axis=1) >= min_pts
    cluster_id = 0
    for seed in range(n):
        if not core[seed] or labels[seed] != _NOISE:
            continue
        # BFS over core points in index order to mirror discovery order.
        labels[seed] = cluster_id
        queue = deque([seed])
        while queue:
            p = queue.popleft()
            for q in np.flatnonzero(adjacent[p]):
                q = int(q)
                if labels[q] == _NOISE:
                    labels[q] = cluster_id
                    if core[q]:
                        queue.append(q)
        cluster_id += 1
    return labels
