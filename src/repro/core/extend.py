"""Extending maximal spanning convoys to their true lifespans (§4.5).

Spanning convoys have benchmark-aligned lifespans; their true starts and
ends lie inside the neighbouring hop windows (Lemmas 7 and 8).  Extension
re-clusters one tick at a time: first to the right (Algorithm 3), then the
right-closed results to the left.  During right extension a convoy that
fails the minimum length is *kept* — it may still reach length ``k`` by
growing left; the ``k`` filter is applied only after left extension.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .bitset import ObjectMask
from .hwmt import recluster
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .types import (
    Convoy,
    TimeInterval,
    Timestamp,
    cached_mask,
    update_maximal,
)


def extend_right(
    source: TrajectorySource,
    convoys: Sequence[Convoy],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Extend each convoy forward until re-clustering fails (Algorithm 3)."""
    results: List[Convoy] = []
    for convoy in convoys:
        frontier = [convoy]
        for t in range(convoy.end + 1, source.end_time + 1):
            frontier = _advance(
                source, frontier, t, query, results, stats, "extend_right",
                forward=True,
            )
            if not frontier:
                break
        for survivor in frontier:
            update_maximal(results, survivor)
    return results


def extend_left(
    source: TrajectorySource,
    convoys: Sequence[Convoy],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Extend each right-closed convoy backward, then apply the k filter."""
    results: List[Convoy] = []
    for convoy in convoys:
        frontier = [convoy]
        for t in range(convoy.start - 1, source.start_time - 1, -1):
            frontier = _advance(
                source, frontier, t, query, results, stats, "extend_left",
                forward=False,
            )
            if not frontier:
                break
        for survivor in frontier:
            update_maximal(results, survivor)
    return [c for c in results if c.duration >= query.k]


def _advance(
    source: TrajectorySource,
    frontier: Sequence[Convoy],
    t: Timestamp,
    query: ConvoyQuery,
    results: List[Convoy],
    stats: Optional[MiningStats],
    phase: str,
    *,
    forward: bool,
) -> List[Convoy]:
    """One extension step: re-cluster every frontier convoy at tick ``t``.

    Convoys that do not survive in their current shape are closed into
    ``results`` (Algorithm 3, lines 7-13); every resulting cluster becomes
    a frontier convoy with the extended lifespan.  Frontier deduplication
    keys on cached bitset masks (one int hash per cluster).
    """
    next_frontier: Dict[Tuple[ObjectMask, Timestamp], Convoy] = {}
    for convoy in frontier:
        clusters = recluster(source, t, convoy.objects, query, stats, phase)
        if not clusters:
            update_maximal(results, convoy)
            continue
        if forward:
            interval = TimeInterval(convoy.start, t)
            anchor = convoy.start
        else:
            interval = TimeInterval(t, convoy.end)
            anchor = convoy.end
        for cluster in clusters:
            key = (cached_mask(cluster), anchor)
            if key not in next_frontier:
                next_frontier[key] = Convoy(cluster, interval)
        if convoy.objects not in clusters:
            update_maximal(results, convoy)
    return list(next_frontier.values())
