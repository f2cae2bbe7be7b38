"""Read side shared by the two stores keyed on ``(t, oid)``.

:class:`repro.storage.relational.RelationalStore` (B+tree) and
:class:`repro.storage.lsmstore.LSMTStore` (LSM tree) keep each point under
the composite key of :mod:`repro.storage.record`, in a tree offering an
ascending ``range(lo, hi)`` scan and an ascending batched
``get_many(keys)``.  So a benchmark snapshot is one range scan and a
per-tick subset fetch is one batched lookup, whichever tree is underneath.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from ..data.dataset import Snapshot
from .record import encode_key, time_range_keys


def _rows(keys: Sequence[bytes], values: Sequence[bytes]) -> Snapshot:
    """Decode key-sorted ``(t, oid)`` keys and ``(x, y)`` values in bulk."""
    oids = np.frombuffer(b"".join(keys), dtype=">i8")[1::2]
    xy = np.frombuffer(b"".join(values), dtype=">f8")
    return (
        oids.astype(np.int64),
        xy[0::2].astype(np.float64),
        xy[1::2].astype(np.float64),
    )


class KeyedTrajectoryStore:
    """Snapshot and keyed access over ``self._tree``, set by the subclass."""

    def snapshot(self, t: int) -> Snapshot:
        lo, hi = time_range_keys(t)
        rows = list(self._tree.range(lo, hi))
        return _rows([key for key, _ in rows], [value for _, value in rows])

    def points_for(self, t: int, oids: Sequence[int]) -> Snapshot:
        return self._points_for_sorted(t, sorted(set(int(o) for o in oids)))

    def points_for_many(
        self, ts: Sequence[int], oids: Sequence[int]
    ) -> Dict[int, Snapshot]:
        """Batched keyed access: sort/dedupe the object set once per window."""
        wanted = sorted(set(int(o) for o in oids))
        return {int(t): self._points_for_sorted(int(t), wanted) for t in ts}

    def _points_for_sorted(self, t: int, wanted: Sequence[int]) -> Snapshot:
        keys = [encode_key(t, oid) for oid in wanted]
        values = self._tree.get_many(keys)
        hits = [i for i, value in enumerate(values) if value is not None]
        return _rows([keys[i] for i in hits], [values[i] for i in hits])

    def close(self) -> None:
        self._tree.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()
