"""Hop-Window Mining Tree (Algorithm 2) and its ordering.

The HWMT is a binary tree over a window's interior timestamps with the
middle timestamp at the root; levels are processed root-first, which means
the *farthest-apart* timestamps are clustered first.  Objects that are only
coincidentally together at adjacent ticks are unlikely to be together at
distant ticks, so this order empties the candidate set as early as possible.
Candidates that die at the root cost exactly one tick of reads; each root
survivor then prefetches the rest of its window in one batched fetch.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..clustering import cluster_snapshot
from .bench_points import HopWindow
from .bitset import ObjectInterner
from .params import ConvoyQuery
from .source import TrajectorySource, fetch_points_for_many, select_sorted_rows
from .stats import MiningStats
from .types import Cluster, Convoy, TimeInterval, Timestamp


def hwmt_order(left: Timestamp, right: Timestamp) -> List[Timestamp]:
    """Level-order (BFS) midpoint-first ordering of the open interval.

    ``left`` and ``right`` are *exclusive* bounds (the window's benchmark
    points, already clustered).  Each node is the floor-midpoint of its
    open sub-interval; within a level, timestamps run left to right, as in
    Figure 4 of the paper.
    """
    order: List[Timestamp] = []
    queue = deque([(left, right)])
    while queue:
        lo, hi = queue.popleft()
        if hi - lo <= 1:
            continue  # empty open interval
        mid = (lo + hi) // 2
        order.append(mid)
        queue.append((lo, mid))
        queue.append((mid, hi))
    return order


def recluster(
    source: TrajectorySource,
    t: Timestamp,
    objects: Cluster,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
    phase: str = "hwmt",
) -> List[Cluster]:
    """DBSCAN over the points of ``objects`` at tick ``t`` (the paper's
    ``reCluster``): validates togetherness of a candidate at one timestamp."""
    oids, xs, ys = source.points_for(t, sorted(objects))
    if stats is not None:
        stats.add_points(phase, len(oids))
    if len(oids) < query.m:
        return []
    return cluster_snapshot(oids, xs, ys, query.eps, query.m)


def mine_hop_window(
    source: TrajectorySource,
    window: HopWindow,
    candidates: Sequence[Cluster],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """1st-order spanning candidate convoys of one hop window.

    Starting from the window's candidate clusters, re-cluster at each HWMT
    timestamp; candidates shrink or split monotonically.  Survivors of all
    interior timestamps span the window and get lifespan ``[left, right]``.
    Survivor deduplication runs on interned bitset masks — one int hash per
    cluster instead of a frozenset hash.

    Point access is two-phase: the root (midpoint) timestamp is probed with
    a per-tick fetch — most candidates die there and cost nothing more —
    and each survivor then prefetches the remaining interior timestamps
    with a single batched ``points_for_many`` call (one fetch per window
    per candidate instead of one per tick).
    """
    if not candidates:
        return []
    order = hwmt_order(window.left, window.right)
    interval = TimeInterval(window.left, window.right)
    if not order:
        return [Convoy(cluster, interval) for cluster in candidates]
    interner = ObjectInterner()
    root, rest = order[0], order[1:]
    surviving: List[Cluster] = []
    seen = set()
    for candidate in candidates:
        for cluster in recluster(source, root, candidate, query, stats):
            key = interner.mask_of(cluster)
            if key not in seen:
                seen.add(key)
                surviving.append(cluster)
    if not surviving:
        return []
    if rest:
        frontier = [
            (cluster, _WindowBuffer(fetch_points_for_many(source, rest, cluster)))
            for cluster in surviving
        ]
        for t in rest:
            next_frontier: List[Tuple[Cluster, _WindowBuffer]] = []
            seen = set()
            for cluster, buffer in frontier:
                for sub in _recluster_buffered(buffer, t, cluster, query, stats):
                    key = interner.mask_of(sub)
                    if key not in seen:
                        seen.add(key)
                        next_frontier.append((sub, buffer))
            if not next_frontier:
                return []
            frontier = next_frontier
        surviving = [cluster for cluster, _ in frontier]
    return [Convoy(cluster, interval) for cluster in surviving]


class _WindowBuffer:
    """Prefetched per-candidate rows for one hop window's interior ticks."""

    __slots__ = ("_snapshots",)

    def __init__(self, snapshots: Dict[int, Tuple]):
        self._snapshots = snapshots

    def points_for(self, t: Timestamp, objects: Cluster):
        oids, xs, ys = self._snapshots[int(t)]
        wanted = np.asarray(sorted(objects), dtype=np.int64)
        return select_sorted_rows(oids, xs, ys, wanted)


def _recluster_buffered(
    buffer: _WindowBuffer,
    t: Timestamp,
    objects: Cluster,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Cluster]:
    """`recluster` against prefetched rows: same output, no store round-trip."""
    oids, xs, ys = buffer.points_for(t, objects)
    if stats is not None:
        stats.add_points("hwmt", len(oids))
    if len(oids) < query.m:
        return []
    return cluster_snapshot(oids, xs, ys, query.eps, query.m)
