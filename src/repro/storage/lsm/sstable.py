"""SSTable: immutable sorted run on disk.

Layout::

    [block 0][block 1]...[block n-1][bloom][index][footer]

Blocks hold consecutive fixed-size records (16-byte key + 16-byte value).
The sparse index maps each block's first key to its offset, so a point
lookup is: bloom check -> binary search of the in-memory index -> one block
read -> binary search within the block.  Range scans start at the block
containing ``lo`` and read forward.  Exactly the access profile §5.2 wants:
co-located timestamp runs for benchmark scans, single-block point gets.
"""

from __future__ import annotations

import os
from collections import OrderedDict
import struct
from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..interface import IOStats
from ..record import KEY_SIZE, RECORD_SIZE, VALUE_SIZE, find_record, lookup_record
from .bloom import BloomFilter

_FOOTER = struct.Struct(">QQQQ4s")  # bloom_off, index_off, n_records, n_blocks, magic
_MAGIC = b"SST1"
BLOCK_RECORDS = 128  # 4 KiB blocks
BLOCK_SIZE = BLOCK_RECORDS * RECORD_SIZE


def write_sstable(
    path: str, entries: Iterable[Tuple[bytes, bytes]], stats: Optional[IOStats] = None
) -> "SSTable":
    """Write sorted unique entries to a new SSTable file and open it."""
    index: List[Tuple[bytes, int]] = []
    n_records = 0
    previous: Optional[bytes] = None
    keys_for_bloom: List[bytes] = []
    with open(path, "wb") as handle:
        block: List[bytes] = []

        def flush_block() -> None:
            nonlocal block
            if block:
                index.append((block[0][:KEY_SIZE], handle.tell()))
                handle.write(b"".join(block))
                block = []

        for key, value in entries:
            if previous is not None and key <= previous:
                raise ValueError("sstable entries must be strictly ascending")
            previous = key
            record = key + value
            if len(record) != RECORD_SIZE:
                raise ValueError("fixed-size records expected")
            block.append(record)
            keys_for_bloom.append(key)
            n_records += 1
            if len(block) == BLOCK_RECORDS:
                flush_block()
        flush_block()

        bloom = BloomFilter.with_capacity(n_records)
        for key in keys_for_bloom:
            bloom.add(key)
        bloom_off = handle.tell()
        bloom_bytes = bloom.to_bytes()
        handle.write(struct.pack(">I", len(bloom_bytes)))
        handle.write(bloom_bytes)

        index_off = handle.tell()
        for first_key, offset in index:
            handle.write(first_key)
            handle.write(struct.pack(">Q", offset))
        handle.write(
            _FOOTER.pack(bloom_off, index_off, n_records, len(index), _MAGIC)
        )
    if stats is not None:
        stats.bytes_written += os.path.getsize(path)
    return SSTable(path, stats)


class SSTable:
    """Read-only view of one sorted run."""

    def __init__(self, path: str, stats: Optional[IOStats] = None):
        self.path = path
        self.stats = stats if stats is not None else IOStats()
        self._file = open(path, "rb")
        self._file.seek(-_FOOTER.size, os.SEEK_END)
        footer = self._file.read(_FOOTER.size)
        bloom_off, index_off, self.num_records, n_blocks, magic = _FOOTER.unpack(
            footer
        )
        if magic != _MAGIC:
            raise ValueError(f"{path} is not an SSTable")
        self._file.seek(bloom_off)
        (bloom_len,) = struct.unpack(">I", self._file.read(4))
        self.bloom = BloomFilter.from_bytes(self._file.read(bloom_len))
        self._file.seek(index_off)
        self._index_keys: List[bytes] = []
        self._index_offsets: List[int] = []
        for _ in range(n_blocks):
            self._index_keys.append(self._file.read(KEY_SIZE))
            (offset,) = struct.unpack(">Q", self._file.read(8))
            self._index_offsets.append(offset)
        self._data_end = bloom_off
        # Raw-block cache: SSTables are immutable, so cached blocks can
        # never go stale.  Point-heavy phases (HWMT, validation) hit the
        # same hot blocks repeatedly, and search them in place.
        self._block_cache: "OrderedDict[int, bytes]" = OrderedDict()
        self._block_cache_limit = 128

    # -- reads ---------------------------------------------------------------

    @property
    def min_key(self) -> Optional[bytes]:
        return self._index_keys[0] if self._index_keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        if not self._index_keys:
            return None
        data = self._read_block(len(self._index_keys) - 1)
        return data[-RECORD_SIZE:-VALUE_SIZE]

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup (bloom-checked)."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Point lookups for ascending ``keys``: the value or ``None`` each.

        The bloom filter is consulted before a block is read for a key, but
        not for keys landing in the block already in hand, which is
        binary-searched in place; only a hit's value is sliced out.
        """
        found: List[Optional[bytes]] = []
        block_no = -1
        for key in keys:
            at = bisect_right(self._index_keys, key, max(block_no, 0)) - 1
            if at < 0:  # below the first key
                found.append(None)
                continue
            if at != block_no:
                if key not in self.bloom:
                    found.append(None)
                    continue
                block_no = at
                data = self._read_block(block_no)
                offsets = range(0, len(data), RECORD_SIZE)
                pos = 0
            pos, value = lookup_record(data, offsets, key, pos)
            found.append(value)
        return found

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Yield entries with ``lo <= key <= hi`` in key order."""
        if not self._index_keys:
            return
        block_no = max(0, bisect_right(self._index_keys, lo) - 1)
        while block_no < len(self._index_keys):
            data = self._read_block(block_no)
            offsets = range(0, len(data), RECORD_SIZE)
            for off in offsets[find_record(data, offsets, lo):]:
                key = data[off : off + KEY_SIZE]
                if key > hi:
                    return
                yield key, data[off + KEY_SIZE : off + RECORD_SIZE]
            block_no += 1

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        for block_no in range(len(self._index_keys)):
            data = self._read_block(block_no)
            for off in range(0, len(data), RECORD_SIZE):
                yield (data[off : off + KEY_SIZE],
                       data[off + KEY_SIZE : off + RECORD_SIZE])

    def _read_block(self, block_no: int) -> bytes:
        cached = self._block_cache.get(block_no)
        if cached is not None:
            self._block_cache.move_to_end(block_no)
            return cached
        start = self._index_offsets[block_no]
        end = (
            self._index_offsets[block_no + 1]
            if block_no + 1 < len(self._index_offsets)
            else self._data_end
        )
        self._file.seek(start)
        data = self._file.read(end - start)
        self.stats.seeks += 1
        self.stats.bytes_read += len(data)
        self._block_cache[block_no] = data
        while len(self._block_cache) > self._block_cache_limit:
            self._block_cache.popitem(last=False)
        return data

    def close(self) -> None:
        self._file.close()
