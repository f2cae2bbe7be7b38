"""Key-value backends the convoy result store can persist into.

One protocol, three substrates, mirroring the paper's §5 storage study:
in-memory (no durability, fastest), the B+tree ("relational"), and the
LSM tree.  All move the 16-byte keys/values of
:mod:`repro.service.records`.  :class:`BPlusTree` and :class:`LSMTree`
meet the protocol themselves, so :func:`open_backend` returns the trees.
"""

from __future__ import annotations

import os
from bisect import bisect_left, bisect_right
from typing import Dict, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

from ..storage.bptree import BPlusTree
from ..storage.interface import IOStats
from ..storage.lsm.tree import LSMTree


@runtime_checkable
class ResultBackend(Protocol):
    """Write/read protocol of the convoy result store."""

    def put(self, key: bytes, value: bytes) -> None: ...

    def get(self, key: bytes) -> Optional[bytes]: ...

    def delete(self, key: bytes) -> None: ...

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]: ...

    def flush(self) -> None: ...

    def close(self) -> None: ...


class MemoryResultBackend:
    """Dict-backed store; the no-durability control and test double."""

    def __init__(self) -> None:
        self._data: Dict[bytes, bytes] = {}
        self._sorted: Optional[List[bytes]] = None
        self.stats = IOStats()

    def put(self, key: bytes, value: bytes) -> None:
        if key not in self._data:
            self._sorted = None
        self._data[key] = value
        self.stats.bytes_written += len(key) + len(value)

    def get(self, key: bytes) -> Optional[bytes]:
        self.stats.point_queries += 1
        return self._data.get(key)

    def delete(self, key: bytes) -> None:
        if self._data.pop(key, None) is not None:
            self._sorted = None

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        self.stats.range_scans += 1
        if self._sorted is None:
            self._sorted = sorted(self._data)
        keys = self._sorted
        for i in range(bisect_left(keys, lo), bisect_right(keys, hi)):
            yield keys[i], self._data[keys[i]]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


BACKENDS = ("memory", "bptree", "lsmt")


def open_backend(kind: str, path: Optional[str] = None) -> ResultBackend:
    """Open (creating if needed) a result backend of the given kind."""
    if kind == "memory":
        return MemoryResultBackend()
    if path is None:
        raise ValueError(f"backend {kind!r} needs a path")
    if kind == "bptree":
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        return BPlusTree(path)
    if kind == "lsmt":
        return LSMTree(path)
    raise ValueError(f"unknown backend {kind!r}; choose from {BACKENDS}")
