"""LSM-backed trajectory store (§5.2's "k2-LSMT").

Composite key ``(t, oid)``, value ``(x, y)``.  Benchmark-point data is one
range scan from ``(t, 0)`` to ``(t, max_oid)`` — co-located in the sorted
runs, so it costs a single seek per run — and a tick's keyed access is one
batched lookup over its ``(t, oid)`` keys, bloom-filtered per block read.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..data.dataset import Dataset
from .interface import IOStats
from .keyed import KeyedTrajectoryStore
from .lsm.tree import LSMTree
from .record import decode_key, encode_key, encode_value


class LSMTStore(KeyedTrajectoryStore):
    """Trajectory store over :class:`repro.storage.lsm.tree.LSMTree`."""

    def __init__(self, directory: str, **lsm_options):
        self.stats = IOStats()
        self._tree = LSMTree(directory, stats=self.stats, **lsm_options)
        self._bounds: Optional[Tuple[int, int, int]] = None  # (count, start, end)

    @staticmethod
    def create(directory: str, dataset: Dataset, **lsm_options) -> "LSMTStore":
        """Bulk-load a dataset as one sorted run."""
        store = LSMTStore(directory, **lsm_options)
        store._tree.bulk_load(
            (encode_key(int(t), int(oid)), encode_value(float(x), float(y)))
            for oid, t, x, y in zip(dataset.oids, dataset.ts, dataset.xs, dataset.ys)
        )
        store._bounds = (
            dataset.num_points,
            dataset.start_time,
            dataset.end_time,
        )
        return store

    def insert(self, oid: int, t: int, x: float, y: float) -> None:
        self._tree.put(encode_key(t, oid), encode_value(x, y))
        self._bounds = None  # invalidate cached bounds

    # -- TrajectorySource ----------------------------------------------------

    def _scan_bounds(self) -> Tuple[int, int, int]:
        if self._bounds is None:
            count, first, last = 0, None, None
            for key, _ in self._tree.range(b"\x00" * 16, b"\xff" * 16):
                if first is None:
                    first = key
                last = key
                count += 1
            if first is None:
                raise ValueError("empty store")
            self._bounds = (count, decode_key(first)[0], decode_key(last)[0])
        return self._bounds

    @property
    def num_points(self) -> int:
        return self._scan_bounds()[0]

    @property
    def start_time(self) -> int:
        return self._scan_bounds()[1]

    @property
    def end_time(self) -> int:
        return self._scan_bounds()[2]

    def flush(self) -> None:
        self._tree.flush()
