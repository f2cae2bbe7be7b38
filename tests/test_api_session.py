"""ConvoySession: registry conformance + the three run modes.

The conformance suite is the satellite contract of the API redesign:
*every* registered miner, run on a planted workload through the facade,
must come back in the shared result types — maximal, time-sorted convoys
— and exact convoy miners must agree with k/2-hop bit for bit.
"""

import os

import pytest

from repro.api import (
    ConvoySession,
    SessionResult,
    get_miner,
    miner_names,
)
from repro.core import ConvoyQuery
from repro.core.types import Convoy, sort_convoys
from repro.data import plant_convoys, save_csv
from repro.storage import MemoryStore

#: Small enough for the brute-force oracle (10 objects), rich enough for
#: every miner to find both planted convoys.
WORKLOAD = dict(
    n_convoys=2, convoy_size=3, convoy_duration=15, n_noise=4,
    duration=25, seed=13,
)
M, K = 3, 10


@pytest.fixture(scope="module")
def workload():
    return plant_convoys(**WORKLOAD)


@pytest.fixture(scope="module")
def session(workload):
    return ConvoySession.from_dataset(workload.dataset).params(
        m=M, k=K, eps=workload.eps
    )


@pytest.fixture(scope="module")
def k2hop_convoys(session):
    return session.algorithm("k2hop").mine().convoys


class TestConformance:
    """Satellite: every registered miner honours the shared contract."""

    @pytest.fixture(params=miner_names(), scope="class")
    def mined(self, request, session):
        name = request.param
        return name, get_miner(name).info, session.algorithm(name).mine()

    def test_returns_shared_result_types(self, mined):
        name, _info, result = mined
        assert isinstance(result, SessionResult), name
        assert all(isinstance(c, Convoy) for c in result.convoys), name

    def test_finds_the_planted_patterns(self, mined):
        name, _info, result = mined
        assert len(result.convoys) >= 1, f"{name} found nothing"

    def test_convoys_are_time_sorted(self, mined):
        name, _info, result = mined
        assert result.convoys == sort_convoys(result.convoys), name

    def test_convoys_satisfy_m_and_k(self, mined):
        name, _info, result = mined
        for convoy in result.convoys:
            assert convoy.size >= M, name
            assert convoy.duration >= K, name

    def test_convoys_are_maximal(self, mined):
        name, info, result = mined
        if info.pattern_kind not in ("convoy", "flock"):
            pytest.skip("drifting-membership kinds have their own maximality")
        for a in result.convoys:
            for b in result.convoys:
                assert not a.is_strict_subconvoy_of(b), (name, a, b)

    def test_exact_convoy_miners_match_k2hop(self, mined, k2hop_convoys):
        name, info, result = mined
        if info.pattern_kind != "convoy" or not info.exact:
            pytest.skip("only exact FC-convoy miners must agree")
        assert result.convoys == k2hop_convoys, name

    def test_rich_kinds_expose_raw_patterns(self, mined):
        name, info, result = mined
        if info.pattern_kind in ("convoy", "flock"):
            assert result.raw is None, name
        else:
            assert result.raw is not None, name
            assert len(result.raw) == len(result.convoys), name


class TestFluentBuilder:
    def test_builders_copy_on_write(self, session):
        forked = session.algorithm("cmc")
        assert session.config.algorithm is None
        assert forked.config.algorithm == "cmc"

    def test_bad_params_raise_eagerly(self, workload):
        with pytest.raises(ValueError, match="m must be"):
            ConvoySession.from_dataset(workload.dataset).params(m=1, k=5, eps=1.0)

    def test_unknown_algorithm_raises_eagerly(self, session):
        with pytest.raises(ValueError, match="unknown algorithm"):
            session.algorithm("nope")

    def test_unknown_source_store_raises_eagerly(self, session):
        with pytest.raises(ValueError, match="unknown trajectory store"):
            session.read_from("papyrus")

    def test_unknown_extra_param_rejected_at_mine(self, session):
        with pytest.raises(TypeError, match="does not accept"):
            session.params(m=M, k=K, eps=1.0, theta=0.5).algorithm("k2hop").mine()

    def test_mine_without_params_raises(self, workload):
        with pytest.raises(ValueError, match="params"):
            ConvoySession.from_dataset(workload.dataset).mine()

    def test_mine_without_data_raises(self):
        with pytest.raises(ValueError, match="needs data"):
            ConvoySession.blank().params(m=3, k=5, eps=1.0).mine()

    def test_describe_reports_resolved_config(self, session):
        description = session.store("lsm", "/tmp/x").describe()
        assert description["algorithm"] == "k2hop"
        assert description["params"]["m"] == M
        assert description["store"] == {"kind": "lsmt", "path": "/tmp/x"}
        assert description["has_data"]

    def test_store_alias_normalised_and_path_required(self):
        with pytest.raises(ValueError, match="needs a path"):
            ConvoySession.blank().store("lsm")
        with pytest.raises(ValueError, match="unknown result store"):
            ConvoySession.blank().store("parquet", "/tmp/x")


class TestBatchMode:
    def test_from_csv_round_trip(self, tmp_path, workload, k2hop_convoys):
        path = str(tmp_path / "data.csv")
        save_csv(workload.dataset, path)
        result = (
            ConvoySession.from_csv(path)
            .params(m=M, k=K, eps=workload.eps)
            .mine()
        )
        assert result.convoys == k2hop_convoys

    @pytest.mark.parametrize("store", ["file", "rdbms", "lsmt"])
    def test_mine_through_disk_store_matches(self, session, k2hop_convoys, store):
        result = session.read_from(store).mine()
        assert result.convoys == k2hop_convoys
        assert result.source_io is not None  # I/O counters captured

    def test_store_built_at_a_caller_path_stays_on_disk(
        self, tmp_path, session, k2hop_convoys
    ):
        assert session.read_from("rdbms", str(tmp_path)).mine().convoys == k2hop_convoys
        assert (tmp_path / "data.db").exists()

    def test_needs_dataset_guard_for_bare_sources(self, workload):
        store = MemoryStore(workload.dataset)
        base = ConvoySession.from_source(store).params(m=M, k=K, eps=workload.eps)
        assert base.algorithm("k2hop").mine().convoys  # protocol is enough
        with pytest.raises(ValueError, match="needs an in-memory Dataset"):
            base.algorithm("cuts").mine()

    def test_store_incompatible_algorithm_rejected(self, session):
        with pytest.raises(ValueError, match="cannot mine through"):
            session.algorithm("cuts").read_from("lsmt").mine()

    def test_mine_persists_to_store(self, tmp_path, session, k2hop_convoys):
        index_dir = str(tmp_path / "idx")
        session.store("lsm", index_dir).mine()
        handle = ConvoySession.open(index_dir)
        try:
            assert handle.convoys == k2hop_convoys
            assert handle.params == ConvoyQuery(m=M, k=K, eps=session.config.params.eps)
            # bounding boxes were derived from the dataset => region works
            assert handle.query.region((-1e12, -1e12, 1e12, 1e12)) == k2hop_convoys
        finally:
            handle.close()
        assert os.path.exists(os.path.join(index_dir, "service.json"))


class TestServeAndFeedModes:
    def test_serve_matches_batch_mine(self, session, k2hop_convoys):
        handle = session.shards("2x2").serve()
        assert handle.convoys == k2hop_convoys
        assert handle.stats.ticks == WORKLOAD["duration"]
        assert handle.query.time_range(0, 10_000) == k2hop_convoys

    def test_feed_accepts_live_snapshots(self, workload, session, k2hop_convoys):
        live = session.feed()
        dataset = workload.dataset
        for t in dataset.timestamps().tolist():
            oids, xs, ys = dataset.snapshot(t)
            live.observe(t, oids, xs, ys)
        live.finish()
        assert live.convoys == k2hop_convoys

    def test_feed_rejects_batch_only_algorithm(self, session):
        with pytest.raises(ValueError, match="cannot consume a live feed"):
            session.algorithm("k2hop").feed()

    def test_feed_rejects_algorithm_extras(self, workload):
        # `history` is a mining extra; the feed's window is .history() —
        # dropping the param silently would disable validation unnoticed.
        misconfigured = ConvoySession.from_dataset(workload.dataset).params(
            m=M, k=K, eps=workload.eps, history=70
        )
        with pytest.raises(ValueError, match="does not take algorithm extras"):
            misconfigured.feed()
        with pytest.raises(ValueError, match="does not take algorithm extras"):
            misconfigured.serve()

    def test_feed_allows_streaming_algorithm(self, session):
        live = session.algorithm("streaming").feed()
        assert live.open_candidates() == []

    def test_blank_feed_needs_1x1_shards(self):
        blank = ConvoySession.blank().params(m=3, k=5, eps=1.0)
        with pytest.raises(ValueError, match="needs dataset bounds"):
            blank.shards("2x2").feed()
        assert blank.feed().convoys == []

    def test_query_only_handle_refuses_writes(self, tmp_path, session):
        index_dir = str(tmp_path / "idx")
        session.store("lsmt", index_dir).mine()
        handle = ConvoySession.open(index_dir)
        try:
            with pytest.raises(RuntimeError, match="query-only"):
                handle.observe(0, [], [], [])
        finally:
            handle.close()

    def test_serve_persists_and_reopens(self, tmp_path, session, k2hop_convoys):
        index_dir = str(tmp_path / "served")
        handle = session.store("lsmt", index_dir).serve()
        handle.close()
        reopened = ConvoySession.open(index_dir)
        try:
            assert reopened.convoys == k2hop_convoys
        finally:
            reopened.close()
