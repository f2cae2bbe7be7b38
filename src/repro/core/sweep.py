"""Snapshot-sweep convoy mining over a restricted database.

This is the workhorse behind HWMT* validation (and the ``k < 2`` fallback):
given an object set ``O`` and a time interval ``T``, find all maximal
convoys of ``DB|O`` within ``T``.  Candidate maintenance follows PCCD's
corrected scheme: the active set tracks intersection chains; a candidate
that does not continue *as a whole* is closed.

The key observation the correctness rests on: if ``O'`` has been within one
cluster at every tick since ``s`` as a subset of a tracked candidate, then
``(O', [s, t])`` is itself a convoy, so intersections may inherit their
parent's start time.

The candidate algebra runs on big-int bitset masks
(:mod:`repro.core.bitset`): each tick's clusters are interned once and the
inner candidate x cluster loop is pure ``&`` / ``bit_count`` / ``==`` on
ints.  :func:`sweep_restricted_scalar` is the original frozenset
implementation, kept as the test oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..clustering import cluster_snapshot
from .bitset import ObjectInterner, ObjectMask
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .types import Cluster, Convoy, TimeInterval, Timestamp, maximal_convoys


def sweep_restricted(
    source: TrajectorySource,
    objects: Optional[Iterable[int]],
    start: Timestamp,
    end: Timestamp,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
    phase: str = "validation",
) -> List[Convoy]:
    """Maximal convoys of ``DB|objects`` within ``[start, end]`` of length >= k.

    ``objects=None`` sweeps the unrestricted database (used by the ``k < 2``
    fallback path of :class:`repro.core.k2hop.K2Hop`).
    """
    wanted = sorted(set(objects)) if objects is not None else None
    interner = ObjectInterner()
    m = query.m
    active: Dict[ObjectMask, Timestamp] = {}
    found: List[Convoy] = []

    def close(mask: ObjectMask, first: Timestamp, last: Timestamp) -> None:
        if last - first + 1 >= query.k:
            found.append(
                Convoy(interner.cluster_of(mask), TimeInterval(first, last))
            )

    for t in range(start, end + 1):
        if wanted is None:
            oids, xs, ys = source.snapshot(t)
        else:
            oids, xs, ys = source.points_for(t, wanted)
        if stats is not None:
            stats.add_points(phase, len(oids))
        clusters = cluster_snapshot(oids, xs, ys, query.eps, m)
        cluster_masks = interner.masks_of(clusters)
        next_active: Dict[ObjectMask, Timestamp] = {}
        for candidate, first_seen in active.items():
            continued_fully = False
            for cluster_mask in cluster_masks:
                joint = candidate & cluster_mask
                if joint.bit_count() >= m:
                    previous = next_active.get(joint)
                    if previous is None or first_seen < previous:
                        next_active[joint] = first_seen
                    if joint == candidate:
                        continued_fully = True
            if not continued_fully:
                close(candidate, first_seen, t - 1)
        for cluster_mask in cluster_masks:
            next_active.setdefault(cluster_mask, t)
        active = next_active
    for candidate, first_seen in active.items():
        close(candidate, first_seen, end)
    return maximal_convoys(found)


def sweep_restricted_scalar(
    source: TrajectorySource,
    objects: Optional[Iterable[int]],
    start: Timestamp,
    end: Timestamp,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
    phase: str = "validation",
) -> List[Convoy]:
    """Frozenset sweep (the original implementation; test oracle)."""
    wanted = sorted(set(objects)) if objects is not None else None
    active: Dict[Cluster, Timestamp] = {}
    found: List[Convoy] = []

    def close(cluster: Cluster, first: Timestamp, last: Timestamp) -> None:
        if last - first + 1 >= query.k:
            found.append(Convoy(cluster, TimeInterval(first, last)))

    for t in range(start, end + 1):
        if wanted is None:
            oids, xs, ys = source.snapshot(t)
        else:
            oids, xs, ys = source.points_for(t, wanted)
        if stats is not None:
            stats.add_points(phase, len(oids))
        clusters = cluster_snapshot(oids, xs, ys, query.eps, query.m)
        next_active: Dict[Cluster, Timestamp] = {}
        for candidate, first_seen in active.items():
            continued_fully = False
            for cluster in clusters:
                joint = candidate & cluster
                if len(joint) >= query.m:
                    previous = next_active.get(joint)
                    if previous is None or first_seen < previous:
                        next_active[joint] = first_seen
                    if joint == candidate:
                        continued_fully = True
            if not continued_fully:
                close(candidate, first_seen, t - 1)
        for cluster in clusters:
            next_active.setdefault(cluster, t)
        active = next_active
    for candidate, first_seen in active.items():
        close(candidate, first_seen, end)
    return maximal_convoys(found)
