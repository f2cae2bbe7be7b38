"""Recursive fully-connected-convoy validation (§4.6, Algorithm 4).

A candidate ``(O, T)`` is a fully connected convoy iff mining the database
*restricted to O over T* returns exactly ``(O, T)``.  The validator first
tries the cheap HWMT*-ordered confirmation pass — clustering the restricted
snapshots extremes-first, failing fast — and only on a shrink or split
falls back to a full restricted sweep whose fragments are re-validated
recursively.  This recursion is the paper's proposed correction to DCVal:
a fragment produced while shrinking a candidate was never checked for full
connectivity over the timestamps it already covered.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional, Sequence, Set, Tuple

from .bitset import ObjectInterner, ObjectMask
from .hwmt import hwmt_order, recluster
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .sweep import sweep_restricted
from .types import Convoy, Timestamp, maximal_convoys


def is_fully_connected(
    source: TrajectorySource,
    convoy: Convoy,
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> bool:
    """Fast HWMT*-ordered check: does ``O`` form one cluster at every tick?

    Clusters the restricted snapshot at the interval extremes first, then at
    midpoints (the HWMT* order), returning ``False`` on the first tick where
    the candidate does not survive in its exact shape.
    """
    order = [convoy.start, convoy.end]
    if convoy.end > convoy.start:
        order += hwmt_order(convoy.start, convoy.end)
    for t in order:
        clusters = recluster(source, t, convoy.objects, query, stats, "validation")
        if clusters != [convoy.objects]:
            return False
    return True


def validate_convoys(
    source: TrajectorySource,
    candidates: Sequence[Convoy],
    query: ConvoyQuery,
    stats: Optional[MiningStats] = None,
) -> List[Convoy]:
    """Reduce extended candidates to maximal fully connected convoys.

    The dedup set of already-enqueued candidates is keyed on interned
    bitset masks plus lifespans, so re-discovered fragments cost one int
    hash instead of a frozenset hash.
    """
    interner = ObjectInterner()

    def key(convoy: Convoy) -> Tuple[ObjectMask, Timestamp, Timestamp]:
        return interner.mask_of(convoy.objects), convoy.start, convoy.end

    queue = deque(
        c for c in candidates if c.duration >= query.k and c.size >= query.m
    )
    seen: Set = {key(c) for c in queue}
    confirmed: List[Convoy] = []
    while queue:
        candidate = queue.popleft()
        if is_fully_connected(source, candidate, query, stats):
            confirmed.append(candidate)
            continue
        fragments = sweep_restricted(
            source,
            candidate.objects,
            candidate.start,
            candidate.end,
            query,
            stats,
        )
        for fragment in fragments:
            if fragment == candidate:
                # The sweep can return the candidate itself when the fast
                # path failed only because DBSCAN split border points; it
                # is then a convoy of its own restriction, hence FC.
                confirmed.append(fragment)
            elif (
                fragment.duration >= query.k
                and fragment.size >= query.m
                and key(fragment) not in seen
            ):
                seen.add(key(fragment))
                queue.append(fragment)
    return maximal_convoys(confirmed)
