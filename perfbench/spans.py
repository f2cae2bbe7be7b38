"""Benchmark-side spans and the wrappers that record them.

A traced run records one span per call into a layer: name, start, end,
the enclosing span and a request id, kept in memory and written out when
the run ends.  The wrappers are installed by :func:`instrument` for the
traced run only, at the names the program's modules import, and removed
afterwards; they return whatever the wrapped call returns, so the traced
run passes the same output checks as the untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

import repro.core.candidates
import repro.core.extend
import repro.core.hwmt
import repro.core.sweep
import repro.core.validate
import repro.service.ingest
from repro.core.stats import MiningStats

Span = Tuple[str, float, float, int, Optional[str]]


class SpanRecorder:
    """In-memory span log; ``spans[i] = (name, start, end, parent, request)``.

    ``parent`` is the index of the enclosing span on the same thread, or
    -1.  Spans are appended when they end, so a child's parent index is
    filled in when the parent closes.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self.request: Optional[str] = None
        #: Off while the benchmark runs its own checks (see :meth:`quiet`).
        self.active = True
        self._local = threading.local()
        self._lock = threading.Lock()
        # Counters recorded at layer boundaries, next to the spans.
        self.recluster_calls = 0
        self.recluster_useful = 0
        self.cluster_points = {"cluster_snapshot": 0, "cluster_with_cores": 0}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def quiet(self) -> Iterator[None]:
        """Record nothing inside: for output checks and reference work."""
        active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = active

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.active:
            yield
            return
        stack = self._stack()
        stack.append([])  # indices of this span's closed children
        started = time.perf_counter()
        try:
            yield
        finally:
            ended = time.perf_counter()
            children = stack.pop()
            with self._lock:
                index = len(self.spans)
                self.spans.append((name, started, ended, -1, self.request))
                for child in children:
                    name_, s, e, _, req = self.spans[child]
                    self.spans[child] = (name_, s, e, index, req)
            if stack:
                stack[-1].append(index)

    def add(self, name: str, started: float, ended: float) -> None:
        """Record a span timed by the caller (no children)."""
        if not self.active:
            return
        with self._lock:
            self.spans.append((name, started, ended, -1, self.request))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": self.spans}, handle)

    # -- queries over the log ------------------------------------------------------

    def total(self, prefix: str) -> Tuple[int, float]:
        """``(count, seconds)`` of spans whose name starts with ``prefix``."""
        count, seconds = 0, 0.0
        for name, start, end, _, _ in self.spans:
            if name.startswith(prefix):
                count += 1
                seconds += end - start
        return count, seconds

    def durations(self, name: str) -> List[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def self_times(self, prefix: str, child_prefixes: Tuple[str, ...]) -> Dict[str, float]:
        """Per span name under ``prefix``: duration minus the time of its
        descendants whose names start with one of ``child_prefixes``."""
        covered: Dict[int, float] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if not name.startswith(child_prefixes):
                continue
            while parent >= 0:  # charge the nearest matching ancestor
                if self.spans[parent][0].startswith(prefix):
                    covered[parent] = covered.get(parent, 0.0) + (end - start)
                    break
                parent = self.spans[parent][3]
        out: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            if name.startswith(prefix):
                out[name] = out.get(name, 0.0) + (end - start) - covered.get(index, 0.0)
        return out


def _patch(stack: contextlib.ExitStack, owner, attr: str, replacement) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Install the layer wrappers for the duration of a traced run."""
    with contextlib.ExitStack() as stack:
        cluster = repro.core.hwmt.cluster_snapshot
        cores = repro.service.ingest.cluster_snapshot_with_cores
        recluster = repro.core.hwmt.recluster
        timed = MiningStats.timed

        @functools.wraps(cluster)
        def cluster_snapshot(oids, *args, **kwargs):
            if recorder.active:
                recorder.cluster_points["cluster_snapshot"] += len(oids)
            with recorder.span("clustering.cluster_snapshot"):
                return cluster(oids, *args, **kwargs)

        @functools.wraps(cores)
        def cluster_with_cores(oids, *args, **kwargs):
            if recorder.active:
                recorder.cluster_points["cluster_with_cores"] += len(oids)
            with recorder.span("clustering.cluster_with_cores"):
                return cores(oids, *args, **kwargs)

        @functools.wraps(recluster)
        def counted_recluster(*args, **kwargs):
            clusters = recluster(*args, **kwargs)
            if recorder.active:
                recorder.recluster_calls += 1
                recorder.recluster_useful += bool(clusters)
            return clusters

        @contextlib.contextmanager
        def phase_span(self, phase):
            with recorder.span("core." + phase), timed(self, phase):
                yield

        for module in (repro.core.candidates, repro.core.hwmt, repro.core.sweep):
            _patch(stack, module, "cluster_snapshot", cluster_snapshot)
        _patch(stack, repro.service.ingest, "cluster_snapshot_with_cores",
               cluster_with_cores)
        for module in (repro.core.hwmt, repro.core.extend, repro.core.validate):
            _patch(stack, module, "recluster", counted_recluster)
        _patch(stack, MiningStats, "timed", phase_span)
        yield recorder


QUERY_FAMILIES = ("time_range", "object_history", "containing", "region")
INDEX_LOOKUPS = ("ids_overlapping", "ids_of_object", "ids_containing",
                 "ids_in_region")


def instrument_service(stack: contextlib.ExitStack, recorder: SpanRecorder,
                       engine, index) -> None:
    """Wrap one service's query engine and index lookups (instance level).

    Each cached-family call becomes a ``query.<family>.hit`` or
    ``.miss`` span, told apart by the engine's own cache counters.
    """
    stats = engine.cache_stats

    def family_wrapper(family: str, method):
        @functools.wraps(method)
        def call(*args, **kwargs):
            hits = stats.hits
            started = time.perf_counter()
            result = method(*args, **kwargs)
            ended = time.perf_counter()
            kind = "hit" if stats.hits != hits else "miss"
            recorder.add(f"query.{family}.{kind}", started, ended)
            return result
        return call

    def span_wrapper(name: str, method):
        @functools.wraps(method)
        def call(*args, **kwargs):
            with recorder.span(name):
                return method(*args, **kwargs)
        return call

    for family in QUERY_FAMILIES:
        _patch(stack, engine, family,
               family_wrapper(family, getattr(engine, family)))
    _patch(stack, engine, "open_candidates",
           span_wrapper("query.open_candidates", engine.open_candidates))
    for name in INDEX_LOOKUPS:
        _patch(stack, index, name, span_wrapper("index.lookup", getattr(index, name)))
