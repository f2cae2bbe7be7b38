"""The k/2-hop convoy miner (Algorithm 1).

Pipeline:

1. cluster the benchmark snapshots (every ``floor(k/2)``-th tick);
2. intersect adjacent benchmark cluster sets into candidate clusters;
3. HWMT: confirm candidates inside each hop window (midpoint-first order);
4. DCM-merge spanning convoys across windows;
5. extend right, then left, to exact lifespans; apply the ``k`` filter;
6. validate to maximal fully connected convoys.

Every phase is timed and every point fetched for clustering is counted, so
one mining run yields the data for Figures 8i/8j and Table 5 as well as the
result set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List

from repro.obs import METRICS

from .bench_points import benchmark_points, hop_windows
from .candidates import cluster_benchmark_point, intersect_cluster_sets
from .extend import extend_left, extend_right
from .hwmt import mine_hop_window
from .merge import merge_spanning_convoys
from .params import ConvoyQuery
from .source import TrajectorySource
from .stats import MiningStats
from .sweep import sweep_restricted
from .types import Convoy, sort_convoys
from .validate import validate_convoys


_RUNS = METRICS.counter(
    "repro_mining_runs_total", "Completed k/2-hop mining runs."
)
_CONVOYS = METRICS.counter(
    "repro_mining_convoys_total", "Convoys produced by completed mining runs."
)


@dataclass
class MiningResult:
    """Convoys plus the statistics gathered while mining them."""

    convoys: List[Convoy]
    stats: MiningStats

    def __iter__(self):
        return iter(self.convoys)

    def __len__(self) -> int:
        return len(self.convoys)


class K2Hop:
    """The k/2-hop miner; construct once per query, call :meth:`mine`."""

    def __init__(self, query: ConvoyQuery):
        self.query = query

    def mine(self, source: TrajectorySource) -> MiningResult:
        """Mine all maximal fully connected convoys of length >= k."""
        stats = MiningStats(total_points=source.num_points)
        if source.num_points == 0:
            result = MiningResult([], stats)
        elif self.query.k < 2:
            result = self._mine_degenerate(source, stats)
        else:
            result = self._mine_hops(source, stats)
        _RUNS.inc()
        if result.convoys:
            _CONVOYS.inc(len(result.convoys))
        return result

    def _map(self, fn: Callable, items: Iterable) -> List:
        """Run one per-window stage (benchmark clustering, HWMT) in order.

        The stages' items are independent until the merge; a subclass may
        run them concurrently (:mod:`repro.extensions.parallel`).
        """
        return list(map(fn, items))

    # -- the real pipeline -------------------------------------------------

    def _mine_hops(self, source: TrajectorySource, stats: MiningStats) -> MiningResult:
        query = self.query
        start, end = source.start_time, source.end_time
        if end - start + 1 < query.k:
            return MiningResult([], stats)  # dataset shorter than any convoy

        points = benchmark_points(start, end, query.hop)
        stats.benchmark_point_count = len(points)
        with stats.timed("benchmark_clustering"):
            benchmark_clusters = self._map(
                lambda t: cluster_benchmark_point(source, t, query, stats), points
            )

        windows = hop_windows(points)
        with stats.timed("candidate_intersection"):
            window_candidates = [
                intersect_cluster_sets(
                    benchmark_clusters[i], benchmark_clusters[i + 1], query.m
                )
                for i in range(len(windows))
            ]
        stats.candidate_cluster_count = sum(len(cc) for cc in window_candidates)

        with stats.timed("hwmt"):
            spanning = self._map(
                lambda pair: mine_hop_window(source, *pair, query, stats),
                zip(windows, window_candidates),
            )
        stats.spanning_convoy_count = sum(len(v) for v in spanning)

        with stats.timed("merge"):
            merged = merge_spanning_convoys(spanning, query.m)
        stats.merged_convoy_count = len(merged)

        with stats.timed("extend_right"):
            right_closed = extend_right(source, merged, query, stats)
        with stats.timed("extend_left"):
            extended = extend_left(source, right_closed, query, stats)
        stats.pre_validation_convoy_count = len(extended)

        with stats.timed("validation"):
            convoys = validate_convoys(source, extended, query, stats)
        stats.convoy_count = len(convoys)
        return MiningResult(sort_convoys(convoys), stats)

    # -- k == 1 fallback -----------------------------------------------------

    def _mine_degenerate(
        self, source: TrajectorySource, stats: MiningStats
    ) -> MiningResult:
        """With ``k == 1`` Lemma 3 gives no pruning; sweep every snapshot."""
        query = self.query
        with stats.timed("hwmt"):
            candidates = sweep_restricted(
                source, None, source.start_time, source.end_time, query,
                stats, phase="hwmt",
            )
        stats.pre_validation_convoy_count = len(candidates)
        with stats.timed("validation"):
            convoys = validate_convoys(source, candidates, query, stats)
        stats.convoy_count = len(convoys)
        return MiningResult(sort_convoys(convoys), stats)


def mine_convoys(
    source: TrajectorySource, m: int, k: int, eps: float
) -> MiningResult:
    """One-call public API: mine maximal FC convoys with k/2-hop."""
    return K2Hop(ConvoyQuery(m=m, k=k, eps=eps)).mine(source)
