"""Benchmark clustering and candidate-cluster intersection (§4.2).

A convoy of length >= k must cross two consecutive benchmark points, and at
each of them its object set lies inside one benchmark cluster (Lemma 4).
Hence the *candidate clusters* for hop window ``H_i`` — the only object sets
worth re-clustering inside the window — are the pairwise intersections of
the two bordering benchmark cluster sets with at least ``m`` survivors
(Lemma 5).  Everything else is pruned without ever being read.

The intersection runs on bitset masks (one ``&`` plus a popcount per
cluster pair); :func:`intersect_cluster_sets_scalar` keeps the frozenset
loop as the test oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..clustering import cluster_snapshot
from .bitset import ObjectInterner
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .types import Cluster, Timestamp


def cluster_benchmark_point(
    source: TrajectorySource,
    t: Timestamp,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Cluster]:
    """(m,eps)-clusters of the full snapshot at benchmark point ``t``."""
    oids, xs, ys = source.snapshot(t)
    if stats is not None:
        stats.add_points("benchmark_clustering", len(oids))
    return cluster_snapshot(oids, xs, ys, query.eps, query.m)


def intersect_cluster_sets(
    left: Sequence[Cluster], right: Sequence[Cluster], m: int
) -> List[Cluster]:
    """Set-wise intersection ``C_i ∩set C_{i+1}`` keeping sets of size >= m.

    Clusters at one timestamp are disjoint, so each left cluster can overlap
    each right cluster in at most one candidate; exact duplicates across
    pairs are impossible, but we deduplicate defensively anyway.
    """
    interner = ObjectInterner()
    left_masks = interner.masks_of(left)
    right_masks = interner.masks_of(right)
    seen = set()
    candidates: List[Cluster] = []
    for li in left_masks:
        for rj in right_masks:
            inter = li & rj
            if inter.bit_count() >= m and inter not in seen:
                seen.add(inter)
                candidates.append(interner.cluster_of(inter))
    return sorted(candidates, key=lambda c: min(c))


def intersect_cluster_sets_scalar(
    left: Sequence[Cluster], right: Sequence[Cluster], m: int
) -> List[Cluster]:
    """Frozenset intersection loop (the original implementation; oracle)."""
    seen = set()
    candidates: List[Cluster] = []
    for ci in left:
        for cj in right:
            inter = ci & cj
            if len(inter) >= m and inter not in seen:
                seen.add(inter)
                candidates.append(inter)
    return sorted(candidates, key=lambda c: min(c))
