"""LSM tree facade: memtable + WAL + SSTable runs + size-tiered compaction."""

from __future__ import annotations

import heapq
import os
from typing import Iterator, List, Optional, Sequence, Tuple

from ...obs import METRICS
from ...testing.faults import FAULTS
from ..interface import IOStats
from ..record import TOMBSTONE
from .compaction import merge_runs
from .memtable import MemTable
from .sstable import SSTable, write_sstable
from .wal import WriteAheadLog

_FLUSHES = METRICS.counter(
    "repro_lsm_flushes_total", "Memtable flushes into SSTable runs."
)
_FLUSH_BYTES = METRICS.counter(
    "repro_lsm_flush_bytes_total", "Bytes written by memtable flushes."
)
_FLUSH_SECONDS = METRICS.histogram(
    "repro_lsm_flush_seconds", "Memtable flush duration."
)
_COMPACTIONS = METRICS.counter(
    "repro_lsm_compactions_total", "Full-merge compactions executed."
)
_COMPACTION_BYTES = METRICS.counter(
    "repro_lsm_compaction_bytes_total", "Bytes written by compactions."
)


class LSMTree:
    """Log-structured merge tree over byte keys and values.

    Directory layout: ``<dir>/wal.log`` plus numbered runs ``run-<n>.sst``
    (larger ``n`` = newer).  Reads consult the memtable first, then runs
    newest-to-oldest; range scans merge all layers.
    """

    def __init__(
        self,
        directory: str,
        *,
        memtable_limit: int = 64 * 1024,
        compaction_fanin: int = 6,
        stats: Optional[IOStats] = None,
        drop_predicate=None,
    ):
        self.directory = directory
        self.memtable_limit = memtable_limit
        self.compaction_fanin = compaction_fanin
        # Retention hook: keys this matches are discarded (not rewritten)
        # by the next compaction.  See set_drop_predicate().
        self._drop_predicate = drop_predicate
        self.stats = stats if stats is not None else IOStats()
        METRICS.register_iostats("lsmt", self.stats)
        os.makedirs(directory, exist_ok=True)
        self._memtable = MemTable()
        self._runs: List[SSTable] = []  # newest first
        self._next_run = 0
        self._open_existing()
        self._wal = WriteAheadLog(self._wal_path)
        for key, value in self._wal.recover():
            self._memtable.put(key, value)

    # -- lifecycle -----------------------------------------------------------

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, "wal.log")

    def _run_path(self, run_no: int) -> str:
        return os.path.join(self.directory, f"run-{run_no:06d}.sst")

    def _open_existing(self) -> None:
        run_files = sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith("run-") and name.endswith(".sst")
        )
        for name in reversed(run_files):  # newest (highest number) first
            self._runs.append(SSTable(os.path.join(self.directory, name), self.stats))
        if run_files:
            self._next_run = int(run_files[-1][4:10]) + 1

    def close(self) -> None:
        self.flush()
        self._wal.close()
        for run in self._runs:
            run.close()
        self._runs = []

    def __enter__(self) -> "LSMTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- writes --------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        self._wal.append(key, value)
        self.stats.bytes_written += len(key) + len(value) + 8
        self._memtable.put(key, value)
        if self._memtable.byte_size >= self.memtable_limit:
            self.flush()

    def delete(self, key: bytes) -> None:
        """Delete by writing a tombstone; space is reclaimed at compaction."""
        self.put(key, TOMBSTONE)

    def bulk_load(self, entries: Iterator[Tuple[bytes, bytes]]) -> None:
        """Write sorted unique entries straight to one SSTable run."""
        path = self._run_path(self._next_run)
        self._next_run += 1
        run = write_sstable(path, entries, self.stats)
        self._runs.insert(0, run)

    def flush(self) -> None:
        """Persist the memtable as a new run and truncate the WAL.

        Crash-consistent in either order of failure: dying before the run
        write keeps everything in the WAL; dying after it (before the
        truncate) replays the WAL into the memtable on reopen, where the
        re-inserted keys shadow the identical run rows — no row is lost
        or observably duplicated (``tests/test_lsm_recovery.py``).
        """
        if len(self._memtable):
            path = self._run_path(self._next_run)
            self._next_run += 1
            written_before = self.stats.bytes_written
            with _FLUSH_SECONDS.time():
                run = write_sstable(path, self._memtable.items(), self.stats)
            _FLUSHES.inc()
            _FLUSH_BYTES.inc(self.stats.bytes_written - written_before)
            self._runs.insert(0, run)
            self._memtable.clear()
            self._maybe_compact()
        FAULTS.crash_point("lsm.flush.before-wal-truncate")
        self._wal.truncate()

    def set_drop_predicate(self, drop) -> None:
        """Install a retention predicate for subsequent compactions.

        ``drop(key) -> bool``; matching rows (and their tombstones) are
        discarded during the full merge instead of being rewritten,
        counted into ``stats.compaction_drops``.  The predicate must
        only match keys whose loss the caller can afford — here, rows of
        convoys the index has already retired.
        """
        self._drop_predicate = drop

    def _maybe_compact(self) -> None:
        if len(self._runs) < self.compaction_fanin:
            return
        path = self._run_path(self._next_run)
        self._next_run += 1
        # A full merge sees every run, so tombstones have shadowed all the
        # data they can shadow and are dropped for good — and retention's
        # drop predicate may discard aged rows outright.
        written_before = self.stats.bytes_written
        merged = write_sstable(
            path,
            (
                (key, value)
                for key, value in merge_runs(
                    self._runs, self._drop_predicate, self.stats
                )
                if value != TOMBSTONE
            ),
            self.stats,
        )
        _COMPACTIONS.inc()
        _COMPACTION_BYTES.inc(self.stats.bytes_written - written_before)
        # Crash here and the reopened tree sees the merged run (newest)
        # shadowing the stale inputs; the next compaction removes them.
        FAULTS.crash_point("lsm.compact.before-run-remove")
        for run in self._runs:
            run.close()
            os.remove(run.path)
        self._runs = [merged]

    # -- reads ---------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Point lookups for ascending ``keys``: the value or ``None`` each.

        The memtable answers first, then the runs newest to oldest; only
        keys still unanswered go on to an older run, and a tombstone
        answers "absent".
        """
        self.stats.point_queries += len(keys)
        found = [self._memtable.get(key) for key in keys]
        missing = [i for i, value in enumerate(found) if value is None]
        for run in self._runs:  # newest first
            if not missing:
                break
            values = run.get_many([keys[i] for i in missing])
            for i, value in zip(missing, values):
                found[i] = value
            missing = [i for i in missing if found[i] is None]
        return [None if value == TOMBSTONE else value for value in found]

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Merged ascending scan across the memtable and all runs."""
        self.stats.range_scans += 1
        sources = [self._memtable.range(lo, hi)] + [
            run.range(lo, hi) for run in self._runs
        ]
        heap = []
        for age, iterator in enumerate(sources):
            entry = next(iterator, None)
            if entry is not None:
                heapq.heappush(heap, (entry[0], age, entry[1]))
        previous: Optional[bytes] = None
        while heap:
            key, age, value = heapq.heappop(heap)
            nxt = next(sources[age], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt[0], age, nxt[1]))
            if key == previous:
                continue
            previous = key
            if value != TOMBSTONE:
                yield key, value

    def __len__(self) -> int:
        """Number of live keys (scans all layers; meant for tests)."""
        return sum(1 for _ in self.range(b"\x00" * 16, b"\xff" * 16))
