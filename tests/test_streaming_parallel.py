"""Streaming monitor and parallel k/2-hop (both must match the batch miner)."""

import threading

import pytest

from repro.baselines import mine_pccd
from repro.core import ConvoyQuery, K2Hop
from repro.core import k2hop as k2hop_module
from repro.data import plant_convoys, random_walk_dataset
from repro.extensions import StreamingConvoyMonitor, mine_convoys_parallel, replay
from repro.obs import METRICS


class TestStreamingMonitor:
    @pytest.mark.parametrize("seed", range(4))
    def test_replay_matches_pccd(self, seed):
        """Unvalidated stream output == PCCD's partially connected convoys."""
        ds = random_walk_dataset(n_objects=9, duration=18, extent=50.0, step=8.0, seed=seed)
        query = ConvoyQuery(m=3, k=4, eps=13.0)
        assert set(replay(ds, query)) == set(mine_pccd(ds, query))

    def test_validated_replay_matches_k2hop(self):
        ds = random_walk_dataset(n_objects=8, duration=15, extent=45.0, step=8.0, seed=6)
        query = ConvoyQuery(m=3, k=4, eps=12.0)
        validated = replay(ds, query, history=ds.end_time - ds.start_time + 1)
        exact = K2Hop(query).mine(ds).convoys
        assert set(validated) == set(exact)

    def test_emission_on_close(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        seen = []
        monitor = StreamingConvoyMonitor(query, on_convoy=seen.append)
        for t in range(4):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        # Objects split at t=4: the convoy closes and is emitted promptly.
        monitor.observe(4, [1, 2], [0.0, 500.0], [0.0, 0.0])
        assert len(seen) == 1
        assert seen[0].interval.start == 0 and seen[0].interval.end == 3

    def test_open_candidates_visible(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(3):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        open_now = monitor.open_candidates()
        assert len(open_now) == 1
        assert open_now[0].objects == frozenset({1, 2})

    def test_gap_closes_candidates(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(3):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        emitted = monitor.observe(10, [1, 2], [0.0, 1.0], [0.0, 0.0])
        assert len(emitted) == 1  # [0,2] closed by the gap

    def test_non_monotonic_rejected(self):
        query = ConvoyQuery(m=2, k=2, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        monitor.observe(5, [1, 2], [0.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            monitor.observe(5, [1, 2], [0.0, 1.0], [0.0, 0.0])

    def test_finish_flushes(self):
        query = ConvoyQuery(m=2, k=3, eps=2.0)
        monitor = StreamingConvoyMonitor(query)
        for t in range(5):
            monitor.observe(t, [1, 2], [0.0, 1.0], [0.0, 0.0])
        emitted = monitor.finish()
        assert len(emitted) == 1
        assert emitted[0].interval.end == 4

    def test_empty_stream(self):
        monitor = StreamingConvoyMonitor(ConvoyQuery(m=2, k=2, eps=1.0))
        assert monitor.finish() == []
        assert monitor.closed_convoys == []


class TestParallelMiner:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_sequential(self, seed):
        ds = random_walk_dataset(n_objects=10, duration=24, extent=55.0, step=8.0, seed=seed)
        query = ConvoyQuery(m=3, k=5, eps=13.0)
        sequential = K2Hop(query).mine(ds)
        parallel = mine_convoys_parallel(ds, query, max_workers=4)
        assert parallel.convoys == sequential.convoys

    def test_planted_recovery(self, planted, planted_query):
        result = mine_convoys_parallel(planted.dataset, planted_query, max_workers=3)
        for truth in planted.convoys:
            assert any(
                truth.objects <= found.objects
                and found.interval.contains_interval(truth.interval)
                for found in result.convoys
            )

    def test_stats_point_counts_consistent(self, planted, planted_query):
        sequential = K2Hop(planted_query).mine(planted.dataset)
        parallel = mine_convoys_parallel(planted.dataset, planted_query, max_workers=4)
        # Thread-safe accounting: same totals as the sequential run.
        assert parallel.stats.points_processed == sequential.stats.points_processed

    def test_run_is_counted_in_mining_metrics(self, planted, planted_query):
        """A parallel run reaches /metrics like a sequential one does."""
        runs = METRICS.value("repro_mining_runs_total")
        convoys = METRICS.value("repro_mining_convoys_total")
        result = mine_convoys_parallel(planted.dataset, planted_query, max_workers=2)
        assert result.convoys
        assert METRICS.value("repro_mining_runs_total") == runs + 1
        assert METRICS.value("repro_mining_convoys_total") == convoys + len(result.convoys)

    def test_both_window_stages_go_through_map(self, planted, planted_query):
        """Benchmark clustering and HWMT are the stages a subclass may spread out."""
        calls = []

        class Recording(K2Hop):
            def _map(self, fn, items):
                items = list(items)
                calls.append(len(items))
                return super()._map(fn, items)

        result = Recording(planted_query).mine(planted.dataset)
        points = result.stats.benchmark_point_count
        assert calls == [points, points - 1]
        assert result.convoys == K2Hop(planted_query).mine(planted.dataset).convoys

    def test_patched_stage_functions_reach_the_pool(
        self, planted, planted_query, monkeypatch
    ):
        """Profilers patch k2hop's module globals; the pool must call the patches."""
        seen = []
        for name in ("cluster_benchmark_point", "mine_hop_window"):
            original = getattr(k2hop_module, name)

            def counted(*args, _name=name, _original=original):
                seen.append((_name, threading.current_thread().name))
                return _original(*args)

            monkeypatch.setattr(k2hop_module, name, counted)
        result = mine_convoys_parallel(planted.dataset, planted_query, max_workers=2)
        points = result.stats.benchmark_point_count
        assert sum(n == "cluster_benchmark_point" for n, _ in seen) == points
        assert sum(n == "mine_hop_window" for n, _ in seen) == points - 1
        main = threading.current_thread().name
        assert all(thread != main for _, thread in seen)

    def test_pool_is_shut_down_after_mine(self, planted, planted_query):
        before = set(threading.enumerate())
        mine_convoys_parallel(planted.dataset, planted_query, max_workers=3)
        assert set(threading.enumerate()) <= before

    def test_non_positive_worker_count_rejected(self, planted, planted_query):
        with pytest.raises(ValueError):
            mine_convoys_parallel(planted.dataset, planted_query, max_workers=0)

    def test_k1_fallback(self):
        ds = random_walk_dataset(n_objects=6, duration=6, seed=0)
        query = ConvoyQuery(m=3, k=1, eps=12.0)
        assert mine_convoys_parallel(ds, query).convoys == K2Hop(query).mine(ds).convoys

    def test_empty_dataset(self):
        from repro.data import Dataset

        result = mine_convoys_parallel(Dataset.empty(), ConvoyQuery(m=2, k=3, eps=1.0))
        assert result.convoys == []
