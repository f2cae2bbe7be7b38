"""Relational-style store: a table clustered by ``(t, oid)`` (§5.1).

The paper's k2-RDBMS variant stores tuples ``(timestamp, oid, x, y)`` under
a multi-column clustering index on ``(timestamp, oid)``.  Here the clustered
index *is* the table: a :class:`repro.storage.bptree.BPlusTree` whose leaf
level holds the rows in key order.  Benchmark snapshots are leaf-level range
scans; HWMT point accesses are keyed lookups — exactly the two access paths
§5 requires.
"""

from __future__ import annotations

import os

from ..data.dataset import Dataset
from ..obs import METRICS
from .bptree import BPlusTree
from .interface import IOStats
from .keyed import KeyedTrajectoryStore
from .record import decode_key, encode_key, encode_value


class RelationalStore(KeyedTrajectoryStore):
    """Trajectory table with a clustered B+tree index on ``(t, oid)``."""

    def __init__(self, path: str, pool_pages: int = 256):
        self.stats = IOStats()
        # Claim the series as "rdbms" before the B+tree underneath would
        # register the same object under "bptree".
        METRICS.register_iostats("rdbms", self.stats)
        self._tree = BPlusTree(path, self.stats, pool_pages=pool_pages)
        self.path = path

    # -- loading -------------------------------------------------------------

    @staticmethod
    def create(path: str, dataset: Dataset, pool_pages: int = 256) -> "RelationalStore":
        """Bulk-load a dataset into a fresh store file."""
        if os.path.exists(path):
            os.remove(path)
        store = RelationalStore(path, pool_pages=pool_pages)
        store._tree.bulk_load(
            (encode_key(int(t), int(oid)), encode_value(float(x), float(y)))
            for oid, t, x, y in zip(
                dataset.oids, dataset.ts, dataset.xs, dataset.ys
            )
        )
        store._tree.flush()
        return store

    def insert(self, oid: int, t: int, x: float, y: float) -> None:
        self._tree.put(encode_key(t, oid), encode_value(x, y))

    # -- TrajectorySource ----------------------------------------------------

    @property
    def num_points(self) -> int:
        return len(self._tree)

    @property
    def start_time(self) -> int:
        first = self._tree.first_key()
        if first is None:
            raise ValueError("empty store")
        return decode_key(first)[0]

    @property
    def end_time(self) -> int:
        last = self._tree.last_key()
        if last is None:
            raise ValueError("empty store")
        return decode_key(last)[0]
