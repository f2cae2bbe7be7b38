"""Sorted in-memory write buffer of the LSM tree."""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterator, List, Optional, Tuple


class MemTable:
    """Key-sorted list of entries; the freshest layer of the LSM tree."""

    def __init__(self):
        self._keys: List[bytes] = []
        self._values: List[bytes] = []
        self._byte_size = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def byte_size(self) -> int:
        """Total key and value bytes held, kept as a running sum."""
        return self._byte_size

    def put(self, key: bytes, value: bytes) -> None:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            self._byte_size += len(value) - len(self._values[i])
            self._values[i] = value
        else:
            self._keys.insert(i, key)
            self._values.insert(i, value)
            self._byte_size += len(key) + len(value)

    def get(self, key: bytes) -> Optional[bytes]:
        i = bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        return None

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        start = bisect_left(self._keys, lo)
        end = bisect_right(self._keys, hi)
        for i in range(start, end):
            yield self._keys[i], self._values[i]

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return iter(zip(self._keys, self._values))

    def clear(self) -> None:
        self._keys.clear()
        self._values.clear()
        self._byte_size = 0
