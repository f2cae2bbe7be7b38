"""Size-tiered compaction: k-way merge of sorted runs.

When the number of SSTables exceeds the policy's fan-in, all runs are merged
into a single new run.  Newer runs win on duplicate keys (last-write-wins),
which the merge implements by tagging each heap entry with the run's age.

A compaction may additionally carry a **drop predicate** (installed by
the retention layer): keys it matches are discarded outright instead of
being rewritten into the output run — the cheap way to age rows out of
the LSM, since a full merge is the one moment every surviving version of
a key is in hand.  Dropped live rows are counted into
``IOStats.compaction_drops``.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

from ..interface import IOStats
from ..record import TOMBSTONE
from .sstable import SSTable

DropPredicate = Callable[[bytes], bool]


def merge_runs(
    tables: List[SSTable],
    drop: Optional[DropPredicate] = None,
    stats: Optional[IOStats] = None,
) -> Iterator[Tuple[bytes, bytes]]:
    """Merge sorted runs; ``tables[0]`` is newest and wins duplicates.

    With ``drop``, matching keys are skipped entirely — live versions
    are counted as ``compaction_drops``, matching tombstones vanish for
    free (nothing is left for them to shadow).
    """
    heap = []
    iterators = [table.items() for table in tables]
    for age, iterator in enumerate(iterators):
        entry = next(iterator, None)
        if entry is not None:
            heapq.heappush(heap, (entry[0], age, entry[1]))
    previous_key: Optional[bytes] = None
    while heap:
        key, age, value = heapq.heappop(heap)
        nxt = next(iterators[age], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], age, nxt[1]))
        if key == previous_key:
            continue  # an older duplicate; the newer value already went out
        previous_key = key
        if drop is not None and drop(key):
            if stats is not None and value != TOMBSTONE:
                stats.compaction_drops += 1
            continue
        yield key, value

