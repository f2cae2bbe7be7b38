"""Parallel k/2-hop — the paper's §7 parallelisation direction.

Hop windows are mutually independent until the merge phase, which makes
the expensive early pipeline embarrassingly parallel: benchmark snapshots
are clustered concurrently, then each hop window's candidate intersection
+ HWMT runs as its own task.  Merging, extension and validation remain
sequential (they are negligible; see Figure 8i).

This is :class:`~repro.core.k2hop.K2Hop` with its per-window stages
mapped over a thread pool.  A thread pool is used rather than processes:
the workloads here are numpy-heavy (DBSCAN releases chunks of the GIL
inside numpy kernels) and the sources (stores) are not generally
picklable.  The speedup is therefore modest in CPython, but the
decomposition is the one a Spark or Flink port would use — which is
precisely what §7 proposes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional

from ..core.k2hop import K2Hop, MiningResult
from ..core.params import ConvoyQuery
from ..core.source import TrajectorySource


class _ThreadPoolK2Hop(K2Hop):
    """K2Hop whose per-window stages run on a pool open for one mine."""

    def __init__(self, query: ConvoyQuery, pool: ThreadPoolExecutor):
        super().__init__(query)
        self._pool = pool

    def _map(self, fn: Callable, items: Iterable) -> List:
        return list(self._pool.map(fn, items))


def mine_convoys_parallel(
    source: TrajectorySource,
    query: ConvoyQuery,
    max_workers: Optional[int] = None,
) -> MiningResult:
    """k/2-hop with parallel benchmark clustering and window mining.

    Produces the exact same convoys as :class:`repro.core.k2hop.K2Hop`
    (asserted by the test suite); only the schedule differs.
    """
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return _ThreadPoolK2Hop(query, pool).mine(source)
