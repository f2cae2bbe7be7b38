"""Measurement helpers: sample summaries, provenance, counted store access."""

from __future__ import annotations

import os
import platform
import re
import resource
import statistics
import subprocess
import threading
import time
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

#: Candidate tail percentiles, highest first.  The ladder stops at p90,
#: the highest percentile that stays inside one regime of every stream:
#: about 1% of hot-stream queries miss the cache (after a write bumps the
#: index version), about 4% of feed ticks close convoys or checkpoint
#: (5-250 ms against ~2 ms), and p99 of the miss stream is set by the
#: neighbours' scheduling on a shared host.  Higher percentiles jump
#: between regimes from run to run: their spread over five runs reached
#: 0.3-0.8 of the median.
TAIL_LADDER = (90.0, 75.0, 50.0)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` at the highest percentile of
    :data:`TAIL_LADDER` that leaves at least ten samples beyond it."""
    n = len(values)
    if not n:
        return 0.0, 0.0, 0
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10 or pct == TAIL_LADDER[-1]:
            return float(np.percentile(values, pct)), pct, n
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: str, workload: str, seed: int) -> Dict[str, object]:
    """Where and on what a result was measured."""
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        **_git_state(root),
    }


def _git_state(root: str) -> Dict[str, object]:
    """Commit and dirty flag, or ``None`` outside a git checkout."""
    # The ceiling keeps git from searching parent directories for a repo.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))

    def git(*args: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", root, *args], capture_output=True, text=True,
                timeout=10, env=env,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    if sha is None:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(git("status", "--porcelain"))}


class CoreRotation:
    """Moves the calling thread round-robin over the allowed cores.

    On a shared host the cores can differ in speed: on a two-core Xeon
    host, one ran a fixed loop up to 25% slower than the other.  A
    single-threaded run stays on one core throughout, so whole runs came
    out fast or slow (``mine_s`` 0.56 s or 0.91 s).  A
    helper thread moves the caller to the next core every ``period``
    seconds, so every run samples all cores alike.  It only places the
    thread; it calls nothing in the program.
    """

    def __init__(self, period: float = 0.2):
        self.period = period
        self.cores = sorted(os.sched_getaffinity(0))
        self._tid = threading.get_native_id()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, daemon=True)

    def _rotate(self) -> None:
        step = 0
        while not self._stop.wait(self.period):
            step += 1
            os.sched_setaffinity(self._tid, {self.cores[step % len(self.cores)]})

    def __enter__(self) -> "CoreRotation":
        if len(self.cores) > 1:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()
        os.sched_setaffinity(self._tid, set(self.cores))


class CountingSource:
    """A :class:`~repro.core.source.TrajectorySource` proxy around a store.

    Counts the rows every fetch returns (``points_read_ratio``'s numerator)
    and, when a span recorder is attached, records each fetch as a
    ``storage.<backend>`` span.
    """

    def __init__(self, store, backend: str, recorder=None):
        self.store = store
        self.backend = backend
        self.recorder = recorder
        self.rows = 0
        self.calls = 0
        self._span = "storage." + backend

    @property
    def num_points(self) -> int:
        return self.store.num_points

    @property
    def start_time(self) -> int:
        return self.store.start_time

    @property
    def end_time(self) -> int:
        return self.store.end_time

    def _fetch(self, fetch, *args):
        self.calls += 1
        if self.recorder is None:
            result = fetch(*args)
        else:
            with self.recorder.span(self._span):
                result = fetch(*args)
        return result

    def snapshot(self, t):
        rows = self._fetch(self.store.snapshot, t)
        self.rows += len(rows[0])
        return rows

    def points_for(self, t, oids):
        rows = self._fetch(self.store.points_for, t, oids)
        self.rows += len(rows[0])
        return rows

    def points_for_many(self, ts, oids):
        batch = self._fetch(self.store.points_for_many, ts, oids)
        self.rows += sum(len(rows[0]) for rows in batch.values())
        return batch


# -- the program's own metrics registry ------------------------------------------

_SAMPLE = re.compile(r'^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$')
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

Scrape = Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]


def scrape(registry) -> Scrape:
    """Every sample of the registry's Prometheus exposition."""
    samples: Scrape = {}
    for line in registry.render_prometheus().splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, labels, value = match.groups()
        key = tuple(sorted(_LABEL.findall(labels or "")))
        samples[(name, key)] = float(value)
    return samples


def delta_sum(before: Scrape, after: Scrape, name: str) -> float:
    """Growth of ``name`` between two scrapes, summed over its series."""
    def total(samples: Scrape) -> float:
        return sum(v for (n, _), v in samples.items() if n == name)

    return total(after) - total(before)


class Stopwatch:
    """Monotonic elapsed time since construction."""

    def __init__(self):
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started


def us(seconds: float) -> float:
    return seconds * 1e6


def ms(seconds: float) -> float:
    return seconds * 1e3
