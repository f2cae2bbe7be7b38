"""The benchmark workloads.

Each drives the system only through public entry points -- ``K2Hop.mine``
over a store, and ``ConvoySession...feed()`` with ``observe``/``finish``/
``.query`` -- from one calling thread in a closed loop, and times those
calls from outside.

Every workload reports every end-to-end metric.  A workload's own
operations give most of them; the rest come from a smaller *companion*
stream on the same trace, which is also the workload's cross-check between
batch and served results:

* ``mine-*`` companion: in-memory live feeds of the trace at the paper's
  default eps, with the query mix (``feed_s``, ``tick_ms_*``,
  ``query_us_*``, ``miss_query_us_*``);
* ``serve-live`` companion: batch k/2-hop runs over the fed trace, which
  the served convoys must equal (``mine_s``, ``points_read_ratio``).

The two streams run interleaved in rounds until the run's time is used, so
every metric samples the whole run rather than one stretch of it: on a
shared host the machine's speed drifts by 10-15% from one ten-second
stretch to the next.  Output checks run outside the timed regions.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from dataclasses import asdict
from typing import Callable, Dict, Iterator, List, Optional

from repro.api import ConvoySession
from repro.baselines import mine_vcoda_star
from repro.core import ConvoyQuery, K2Hop
from repro.core.types import sort_convoys
from repro.obs import METRICS
from repro.storage import LSMTStore, MemoryStore, RelationalStore

from inputs import QueryMix, make_trace
from measure import CountingSource, Stopwatch
from spans import SpanRecorder, instrument_service

M, K = 3, 20
#: The paper's default eps for the Brinkhoff trace (paperbench).
EPS = 30.0
#: The ROADMAP's pathological eps: k/2-hop reads ~8x the dataset.
EPS_WIDE = 300.0

#: Setups timed per run; ``setup_s`` is their median.
SETUPS = 3
#: Rounds per run, at least, so ``mine-wide-eps`` mines at least twice.
MIN_ROUNDS = 2
#: Cached-family queries after each observe.
BURST = 50
#: The read-only phase after ``finish``: steps x queries per step.
READ_STEPS = 20
READ_CHUNK = 1000
#: One query answer in this many is checked against a brute filter.
CHECK_EVERY = 16


class Pass:
    """Samples, counters and check failures of one pass over a workload."""

    def __init__(self, workdir: str, seed: int, seconds: float, size: str,
                 recorder: Optional[SpanRecorder] = None):
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=workdir)
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.recorder = recorder
        self.setup_s: List[float] = []
        self.mine_s: List[float] = []
        self.rows_read = 0
        self.rows_total = 0
        self.feed_s: List[float] = []
        self.tick_s: List[float] = []
        self.hot_s: List[float] = []
        self.miss_s: List[float] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.queries = 0
        # Per-layer material, read by layers.py for traced passes.
        self.mining_stats = []  # MiningStats of the measured mining calls
        self.sources: Dict[str, List[CountingSource]] = {}
        self.io_before: Dict[str, dict] = {}
        self.io_after: Dict[str, dict] = {}
        self.ingest = {"halo_copies": 0, "border_merges": 0, "closed_convoys": 0}
        self.index = {"rows": 0, "version_bumps": 0, "bytes_written": 0,
                      "pages_written": 0}
        self.cache = {"hits": 0, "misses": 0, "evictions": 0}
        self.scrape_s: List[float] = []
        self.vcoda_star_s = 0.0
        self.mined = None  # the first mining result of the pass
        self.registry_before = None
        self.registry_after = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def request(self, rid: str) -> None:
        if self.recorder is not None:
            self.recorder.request = rid

    @contextlib.contextmanager
    def untraced(self):
        """Benchmark-side work (checks, reference runs): never in the trace."""
        if self.recorder is None:
            yield
        else:
            with self.recorder.quiet():
                yield

    def span(self, name: str):
        return self.recorder.span(name) if self.recorder else contextlib.nullcontext()

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def timed_setup(run: Pass, build: Callable[[], object]) -> object:
    started = time.perf_counter()
    made = build()
    run.setup_s.append(time.perf_counter() - started)
    return made


Steps = Iterator[None]


def interleave(run: Pass, first: Steps, first_steps: int,
               second: Steps, second_steps: int) -> None:
    """Rounds of ``first_steps`` steps of one stream, then ``second_steps``
    of the other, until the run's time is used (at least
    :data:`MIN_ROUNDS` rounds and one complete feed)."""
    clock = Stopwatch()
    rounds = 0
    while (rounds < MIN_ROUNDS or clock.elapsed() < run.seconds
           or not run.feed_s):
        for _ in range(first_steps):
            next(first)
        for _ in range(second_steps):
            next(second)
        rounds += 1
    first.close()
    second.close()


# -- mining -----------------------------------------------------------------------


def mining(run: Pass, stores, query: ConvoyQuery, expected=None) -> Steps:
    """One ``K2Hop.mine`` call per step, round-robin over ``stores``.

    A ``mine_s`` sample is the mean call time of one cycle over the
    stores, so a median never falls between two stores' speeds.  Every
    result must equal ``expected``, or else the first result, which is
    kept as ``run.mined``.
    """
    for backend, store in stores:
        run.io_before.setdefault(backend, asdict(store.stats))
    cycle = 0.0
    calls = 0
    try:
        while True:
            backend, store = stores[calls % len(stores)]
            source = CountingSource(store, backend, run.recorder)
            run.request(f"mine-{calls}")
            started = time.perf_counter()
            result = K2Hop(query).mine(source)
            cycle += time.perf_counter() - started
            calls += 1
            run.attempted += 1
            run.rows_read += source.rows
            run.rows_total += source.num_points
            run.sources.setdefault(backend, []).append(source)
            run.mining_stats.append(result.stats)
            if calls % len(stores) == 0:
                run.mine_s.append(cycle / len(stores))
                cycle = 0.0
            if run.mined is None:
                run.mined = result.convoys
            reference = expected if expected is not None else run.mined
            if result.convoys != reference:
                run.fail(f"{backend} mined {len(result.convoys)} convoys at "
                         f"eps={query.eps}, expected {len(reference)}")
            yield
    finally:
        for backend, store in stores:
            run.io_after[backend] = asdict(store.stats)


def reference_mine(run: Pass, trace, query: ConvoyQuery):
    """Batch k/2-hop on the memory store, outside the measurements."""
    with run.untraced():
        return K2Hop(query).mine(MemoryStore(trace)).convoys


def check_vcoda_star(run: Pass, trace, query: ConvoyQuery, convoys) -> None:
    """Mined convoys must equal the VCoDA* full scan on the same query."""
    with run.untraced():
        started = time.perf_counter()
        oracle = mine_vcoda_star(MemoryStore(trace), query)
        run.vcoda_star_s = time.perf_counter() - started
    if set(oracle) != set(convoys):
        run.fail(f"k/2-hop found {len(convoys)} convoys, VCoDA* {len(oracle)} "
                 f"(eps={query.eps})")


# -- serving ------------------------------------------------------------------------


def brute_answer(index, family: str, args: tuple):
    """A query answered by a plain filter over every stored record."""
    if family == "time_range":
        lo, hi = args
        keep = lambda r: r.convoy.start <= hi and r.convoy.end >= lo  # noqa: E731
    elif family == "object_history":
        keep = lambda r: args[0] in r.convoy.objects  # noqa: E731
    elif family == "containing":
        wanted = set(args[0])
        keep = lambda r: wanted <= r.convoy.objects  # noqa: E731
    else:
        xmin, ymin, xmax, ymax = args[0]
        keep = lambda r: (r.bbox is not None and r.bbox[0] <= xmax  # noqa: E731
                          and xmin <= r.bbox[2] and r.bbox[1] <= ymax
                          and ymin <= r.bbox[3])
    return sort_convoys(r.convoy for r in index.records() if keep(r))


class Feeder:
    """One live feed driven through the in-process service handle."""

    def __init__(self, run: Pass, live):
        self.run = run
        self.live = live

    def queries(self, mix: QueryMix, n: int) -> None:
        run, engine = self.run, self.live.query
        for _ in range(n):
            miss, (family, args) = mix.next()
            run.request(f"q-{run.queries}")
            call = getattr(engine, family)
            started = time.perf_counter()
            answer = call(*args)
            (run.miss_s if miss else run.hot_s).append(time.perf_counter() - started)
            run.attempted += 1
            run.queries += 1
            if run.queries % CHECK_EVERY == 0:
                with run.untraced():
                    expected = brute_answer(self.live.index, family, args)
                if answer != expected:
                    run.fail(f"{family}{args}: {len(answer)} convoys, "
                             f"brute filter {len(expected)}")

    def ticks(self, trace, mix: QueryMix) -> Iterator[float]:
        """Per tick: observe, a query burst and an open-candidates read;
        then finish.  Yields each observe/finish time."""
        run, live = self.run, self.live
        for t in trace.timestamps().tolist():
            oids, xs, ys = trace.snapshot(t)
            run.request(f"tick-{t}")
            with run.span("service.observe"):
                started = time.perf_counter()
                live.observe(t, oids, xs, ys)
                elapsed = time.perf_counter() - started
            run.tick_s.append(elapsed)
            run.attempted += 1
            self.queries(mix, BURST)
            live.query.open_candidates()
            run.attempted += 1
            yield elapsed
        run.request("finish")
        with run.span("service.finish"):
            started = time.perf_counter()
            live.finish()
            elapsed = time.perf_counter() - started
        run.attempted += 1
        yield elapsed

    def account(self) -> None:
        """Fold the service's own counters into the pass (per-layer)."""
        run, live = self.run, self.live
        stats = live.stats
        for name in run.ingest:
            run.ingest[name] += getattr(stats, name)
        run.index["rows"] = len(live.index)
        run.index["version_bumps"] += live.index.version
        backend_stats = getattr(live.index.backend, "stats", None)
        if backend_stats is not None:
            run.index["bytes_written"] += backend_stats.bytes_written
            run.index["pages_written"] += backend_stats.pages_written
        cache = live.query.cache_stats
        for name in run.cache:
            run.cache[name] += getattr(cache, name)


def feeds(run: Pass, trace, batch, open_next: Callable[[], object]) -> Steps:
    """Live feeds, one after another, one step per tick.

    A feed is: every tick (observe + queries), finish, then a read-only
    phase of :data:`READ_STEPS` steps; then the served convoys must equal
    ``batch``.  ``feed_s`` is the feed's observe + finish time.  A feed
    still open when the run ends is closed unmeasured.
    """
    mix = QueryMix(run.seed, trace)
    while True:
        live = open_next()
        feeder = Feeder(run, live)
        try:
            with contextlib.ExitStack() as stack:
                if run.recorder is not None:
                    instrument_service(stack, run.recorder, live.query, live.index)
                ingest_s = 0.0
                for elapsed in feeder.ticks(trace, mix):
                    ingest_s += elapsed
                    yield
                for _ in range(READ_STEPS):
                    feeder.queries(mix, READ_CHUNK)
                    yield
            run.feed_s.append(ingest_s)
            served = live.convoys
            if set(served) != set(batch):
                run.fail(f"served {len(served)} convoys, batch k/2-hop {len(batch)}")
            feeder.account()
        finally:
            live.close()


def in_process_scrapes(run: Pass, count: int = 5) -> None:
    """``render_prometheus`` in-process (the ``obs.scrape_ms`` probe)."""
    for _ in range(count):
        started = time.perf_counter()
        METRICS.render_prometheus()
        run.scrape_s.append(time.perf_counter() - started)


def companion_feeds(run: Pass, trace, batch) -> Steps:
    """The mine workloads' serving side: in-memory feeds at eps=30."""
    session = (ConvoySession.from_dataset(trace).params(m=M, k=K, eps=EPS)
               .history("full"))
    return feeds(run, trace, batch, session.feed)


# -- the workloads ------------------------------------------------------------------


def mine_store(run: Pass) -> None:
    """k/2-hop at eps=30, alternating the rdbms and lsmt stores call by call."""
    query = ConvoyQuery(m=M, k=K, eps=EPS)
    stores: list = []

    def build():
        trace = make_trace(run.seed, run.size)
        base = tempfile.mkdtemp(dir=run.tmp)
        return trace, [
            ("rdbms", RelationalStore.create(os.path.join(base, "data.db"), trace)),
            ("lsmt", LSMTStore.create(os.path.join(base, "lsm"), trace)),
        ]

    try:
        for _ in range(SETUPS):
            for _, store in stores:
                store.close()
            trace, stores = timed_setup(run, build)
        batch = reference_mine(run, trace, query)
        check_vcoda_star(run, trace, query, batch)
        interleave(run, mining(run, stores, query, batch), 2,
                   companion_feeds(run, trace, batch), 40)
    finally:
        for _, store in stores:
            store.close()
    in_process_scrapes(run)


def mine_wide_eps(run: Pass) -> None:
    """k/2-hop at eps=300 on the memory store (the full-scan-loss case)."""
    def build():
        trace = make_trace(run.seed, run.size)
        return trace, MemoryStore(trace)

    for _ in range(SETUPS):
        trace, store = timed_setup(run, build)
    wide = ConvoyQuery(m=M, k=K, eps=EPS_WIDE)
    batch = reference_mine(run, trace, ConvoyQuery(m=M, k=K, eps=EPS))
    interleave(run, mining(run, [("memory", store)], wide), 1,
               companion_feeds(run, trace, batch),
               (len(trace.timestamps()) + 1 + READ_STEPS) // MIN_ROUNDS + 1)
    check_vcoda_star(run, trace, wide, run.mined)
    in_process_scrapes(run)


def serve_live(run: Pass) -> None:
    """Sharded durable live feeds (each opened as a timed setup) with the
    query mix, interleaved with the batch k/2-hop they must equal."""
    query = ConvoyQuery(m=M, k=K, eps=EPS)
    trace = make_trace(run.seed, run.size)
    batch = reference_mine(run, trace, query)
    check_vcoda_star(run, trace, query, batch)

    def setup():
        generated = make_trace(run.seed, run.size)  # equal to ``trace``
        path = tempfile.mkdtemp(prefix="store-", dir=run.tmp)
        return (ConvoySession.from_dataset(generated).params(m=M, k=K, eps=EPS)
                .shards("2x2").history("full").store("lsm", path)
                .durable(64).feed())

    interleave(run, feeds(run, trace, batch, lambda: timed_setup(run, setup)), 40,
               mining(run, [("memory", MemoryStore(trace))], query, batch), 1)
    while len(run.setup_s) < SETUPS:
        timed_setup(run, setup).close()
    in_process_scrapes(run)


WORKLOADS: Dict[str, Callable[[Pass], None]] = {
    "mine-store": mine_store,
    "mine-wide-eps": mine_wide_eps,
    "serve-live": serve_live,
}

#: The samples whose median ``obs.trace_overhead_pct`` compares.
PRIMARY = {
    "mine-store": "mine_s",
    "mine-wide-eps": "mine_s",
    "serve-live": "tick_s",
}
