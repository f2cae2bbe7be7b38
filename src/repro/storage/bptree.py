"""On-disk B+tree with fixed-size keys and values.

The "relational" storage backend of the paper (§5.1) needs exactly one
access structure: a clustered index on ``(timestamp, oid)`` supporting
range scans by timestamp and point lookups by full key.  This module is
that index: 4 KiB pages, 16-byte keys, 16-byte values, leaf chaining for
range scans, standard top-down insertion with node splits, and a
bottom-up bulk loader for the initial data load.

Page layout::

    meta (page 0): magic(4) root(8) height(2) count(8)
    leaf:     type(1)=0 count(2) next(8) pad(5) | [key(16) value(16)] * count
    internal: type(1)=1 count(2) pad(13)        | child0(8) [key(16) child(8)] * count

An internal node with ``count`` keys has ``count + 1`` children; subtree
``i`` holds keys ``k`` with ``keys[i-1] <= k < keys[i]`` (first/last
unbounded).
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..obs import METRICS
from .pager import PAGE_SIZE, BufferPool, Pager
from .interface import IOStats
from .record import KEY_SIZE, VALUE_SIZE, find_record, lookup_record

_META = struct.Struct(">4sqHq")
_MAGIC = b"BPT1"
_HEADER_SIZE = 16
_LEAF_ENTRY = KEY_SIZE + VALUE_SIZE
_INTERNAL_ENTRY = KEY_SIZE + 8

LEAF_CAPACITY = (PAGE_SIZE - _HEADER_SIZE) // _LEAF_ENTRY
INTERNAL_CAPACITY = (PAGE_SIZE - _HEADER_SIZE - 8) // _INTERNAL_ENTRY

_LEAF, _INTERNAL = 0, 1


def _count(page) -> int:
    return int.from_bytes(page[1:3], "big")


def _next_leaf(page) -> int:
    return int.from_bytes(page[3:11], "big", signed=True)


def _leaf_offsets(page) -> range:
    """Offsets of a leaf's records, in key order."""
    return range(_HEADER_SIZE, _HEADER_SIZE + _count(page) * _LEAF_ENTRY, _LEAF_ENTRY)


class BPlusTree:
    """A persistent B+tree over fixed-size byte keys/values."""

    def __init__(self, path: str, stats: Optional[IOStats] = None,
                 pool_pages: int = 256):
        self.stats = stats if stats is not None else IOStats()
        # Registered before the Pager shares the same object, so the
        # registry's id-dedupe attributes the series to "bptree".
        METRICS.register_iostats("bptree", self.stats)
        self._pager = Pager(path, self.stats)
        self._pool = BufferPool(self._pager, pool_pages)
        # Decoded internal nodes: every descent binary-searches them, and
        # they are few (under 1% of pages), so they stay decoded.  Leaves
        # are searched in their pool pages.  Entries drop on a node write.
        self._internal_cache: "OrderedDict[int, Tuple[List[bytes], List[int]]]" = (
            OrderedDict()
        )
        self._internal_cache_limit = max(64, pool_pages)
        if self._pager.num_pages == 0:
            meta = self._pool.allocate()  # page 0
            root = self._pool.allocate()  # page 1: empty leaf
            assert meta == 0 and root == 1
            self._init_leaf(root, next_leaf=-1)
            self._root = root
            self._height = 1
            self._count = 0
            self._write_meta()
        else:
            data = self._pool.get(0)
            magic, self._root, self._height, self._count = _META.unpack(
                bytes(data[: _META.size])
            )
            if magic != _MAGIC:
                raise ValueError(f"{path} is not a B+tree file")

    # -- public API --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; returns the value or ``None``."""
        return self.get_many([key])[0]

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[bytes]]:
        """Point lookups for ascending ``keys``: the value or ``None`` each.

        Keys below the fence of the leaf in hand share its descent and page
        fetch.  The leaf is binary-searched in its page bytes, and only a
        hit's value is copied out.
        """
        self.stats.point_queries += len(keys)
        found: List[Optional[bytes]] = []
        fence: Optional[bytes] = b""  # below every key: the first one descends
        for key in keys:
            if fence is not None and key >= fence:
                leaf_no, fence = self._descend(key)
                data = self._leaf_page(leaf_no)
                offsets = _leaf_offsets(data)
                pos = 0
            pos, value = lookup_record(data, offsets, key, pos)
            found.append(value)
        return found

    def range(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Yield ``(key, value)`` with ``lo <= key <= hi``, ascending."""
        self.stats.range_scans += 1
        leaf_no, _ = self._descend(lo)
        while leaf_no != -1:
            # A private copy: the caller may write to the tree between yields.
            data = bytes(self._leaf_page(leaf_no))
            offsets = _leaf_offsets(data)
            for off in offsets[find_record(data, offsets, lo):]:
                key = data[off : off + KEY_SIZE]
                if key > hi:
                    return
                yield key, data[off + KEY_SIZE : off + _LEAF_ENTRY]
            lo = b""  # subsequent leaves are scanned from their start
            leaf_no = _next_leaf(data)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite one entry."""
        split = self._insert_into(self._root, self._height, key, value)
        if split is not None:
            sep_key, right_no = split
            new_root = self._pool.allocate()
            data = self._pool.get(new_root)
            data[0] = _INTERNAL
            data[1:3] = (1).to_bytes(2, "big")
            off = _HEADER_SIZE
            data[off : off + 8] = self._root.to_bytes(8, "big")
            data[off + 8 : off + 8 + KEY_SIZE] = sep_key
            data[off + 8 + KEY_SIZE : off + 16 + KEY_SIZE] = right_no.to_bytes(
                8, "big"
            )
            self._pool.mark_dirty(new_root)
            self._root = new_root
            self._height += 1
        self._write_meta()

    def delete(self, key: bytes) -> bool:
        """Remove one entry; returns whether it existed.

        Lazy deletion: the leaf entry is removed but underfull leaves are
        not merged or rebalanced.  For this library's workloads (bulk load
        + occasional point maintenance) that is the standard trade-off; a
        rebuild via :meth:`bulk_load` restores full occupancy.
        """
        leaf_no, _ = self._descend(key)
        keys, values, next_leaf = self._read_leaf(leaf_no)
        i = bisect_left(keys, key)
        if i >= len(keys) or keys[i] != key:
            return False
        del keys[i]
        del values[i]
        self._count -= 1
        self._write_leaf(leaf_no, keys, values, next_leaf)
        self._write_meta()
        return True

    def bulk_load(self, entries: Iterable[Tuple[bytes, bytes]]) -> None:
        """Build the tree bottom-up from key-sorted unique entries.

        Only valid on a freshly created (empty) tree.
        """
        if self._count:
            raise ValueError("bulk_load requires an empty tree")
        leaves: List[Tuple[bytes, int]] = []  # (first key, page no)
        batch: List[Tuple[bytes, bytes]] = []
        previous_key: Optional[bytes] = None

        def flush_leaf() -> None:
            if not batch:
                return
            page_no = self._root if not leaves else self._pool.allocate()
            self._init_leaf(page_no, next_leaf=-1)
            data = self._pool.get(page_no)
            data[1:3] = len(batch).to_bytes(2, "big")
            off = _HEADER_SIZE
            for key, value in batch:
                data[off : off + KEY_SIZE] = key
                data[off + KEY_SIZE : off + _LEAF_ENTRY] = value
                off += _LEAF_ENTRY
            self._pool.mark_dirty(page_no)
            if leaves:  # link the previous leaf to this one
                prev = self._pool.get(leaves[-1][1])
                prev[3:11] = page_no.to_bytes(8, "big", signed=True)
                self._pool.mark_dirty(leaves[-1][1])
            leaves.append((batch[0][0], page_no))
            batch.clear()

        fill = max(1, (LEAF_CAPACITY * 3) // 4)  # leave slack for inserts
        for key, value in entries:
            if previous_key is not None and key <= previous_key:
                raise ValueError("bulk_load entries must be strictly ascending")
            previous_key = key
            batch.append((key, value))
            self._count += 1
            if len(batch) == fill:
                flush_leaf()
        flush_leaf()
        if not leaves:  # empty input: keep the fresh empty root leaf
            self._write_meta()
            return

        # Build internal levels until a single node remains.
        level = leaves
        height = 1
        internal_fill = max(2, (INTERNAL_CAPACITY * 3) // 4)
        while len(level) > 1:
            next_level: List[Tuple[bytes, int]] = []
            for start in range(0, len(level), internal_fill):
                group = level[start : start + internal_fill]
                page_no = self._pool.allocate()
                data = self._pool.get(page_no)
                data[0] = _INTERNAL
                data[1:3] = (len(group) - 1).to_bytes(2, "big")
                off = _HEADER_SIZE
                data[off : off + 8] = group[0][1].to_bytes(8, "big")
                off += 8
                for first_key, child in group[1:]:
                    data[off : off + KEY_SIZE] = first_key
                    data[off + KEY_SIZE : off + _INTERNAL_ENTRY] = child.to_bytes(
                        8, "big"
                    )
                    off += _INTERNAL_ENTRY
                self._pool.mark_dirty(page_no)
                next_level.append((group[0][0], page_no))
            level = next_level
            height += 1
        self._root = level[0][1]
        self._height = height
        self._write_meta()

    def first_key(self) -> Optional[bytes]:
        """Smallest key in the tree (or ``None`` when empty)."""
        node = self._root
        for _ in range(self._height - 1):
            node = self._read_internal(node)[1][0]
        data = self._leaf_page(node)
        offsets = _leaf_offsets(data)
        return bytes(data[offsets[0] : offsets[0] + KEY_SIZE]) if offsets else None

    def last_key(self) -> Optional[bytes]:
        node = self._root
        for _ in range(self._height - 1):
            node = self._read_internal(node)[1][-1]
        data = self._leaf_page(node)
        offsets = _leaf_offsets(data)
        return bytes(data[offsets[-1] : offsets[-1] + KEY_SIZE]) if offsets else None

    def flush(self) -> None:
        self._pool.flush()
        self._pager.sync()

    def close(self) -> None:
        self._pool.flush()
        self._pager.close()

    # -- node helpers --------------------------------------------------------

    def _write_meta(self) -> None:
        data = self._pool.get(0)
        data[: _META.size] = _META.pack(_MAGIC, self._root, self._height,
                                        self._count)
        self._pool.mark_dirty(0)

    def _init_leaf(self, page_no: int, next_leaf: int) -> None:
        data = self._pool.get(page_no)
        data[0] = _LEAF
        data[1:3] = (0).to_bytes(2, "big")
        data[3:11] = next_leaf.to_bytes(8, "big", signed=True)
        self._pool.mark_dirty(page_no)

    def _leaf_page(self, page_no: int) -> bytearray:
        data = self._pool.get(page_no)
        if data[0] != _LEAF:
            raise ValueError(f"page {page_no} is not a leaf")
        return data

    def _read_leaf(self, page_no: int):
        """Decode a leaf into ``(keys, values, next_leaf)`` for rewriting."""
        data = self._leaf_page(page_no)
        offsets = _leaf_offsets(data)
        keys = [bytes(data[off : off + KEY_SIZE]) for off in offsets]
        values = [bytes(data[off + KEY_SIZE : off + _LEAF_ENTRY]) for off in offsets]
        return keys, values, _next_leaf(data)

    def _read_internal(self, page_no: int) -> Tuple[List[bytes], List[int]]:
        """Decoded ``(keys, children)`` of an internal node, from the cache."""
        cached = self._internal_cache.get(page_no)
        if cached is not None:
            self._internal_cache.move_to_end(page_no)
            return cached
        data = self._pool.get(page_no)
        if data[0] != _INTERNAL:
            raise ValueError(f"page {page_no} is not internal")
        count = _count(data)
        off = _HEADER_SIZE
        children = [int.from_bytes(data[off : off + 8], "big")]
        off += 8
        keys = []
        for _ in range(count):
            keys.append(bytes(data[off : off + KEY_SIZE]))
            children.append(
                int.from_bytes(data[off + KEY_SIZE : off + _INTERNAL_ENTRY], "big")
            )
            off += _INTERNAL_ENTRY
        self._internal_cache[page_no] = (keys, children)
        while len(self._internal_cache) > self._internal_cache_limit:
            self._internal_cache.popitem(last=False)
        return keys, children

    def _descend(self, key: bytes) -> Tuple[int, Optional[bytes]]:
        """The leaf that would contain ``key``, and that leaf's fence.

        The fence is the smallest separator above ``key`` on the path
        (``None`` for the rightmost leaf): every key from ``key`` up to,
        but excluding, the fence belongs in the same leaf.
        """
        node = self._root
        fence: Optional[bytes] = None
        for _ in range(self._height - 1):
            keys, children = self._read_internal(node)
            idx = bisect_right(keys, key)
            if idx < len(keys):  # a deeper separator is the tighter one
                fence = keys[idx]
            node = children[idx]
        return node, fence

    # -- insertion ---------------------------------------------------------

    def _insert_into(
        self, node: int, height: int, key: bytes, value: bytes
    ) -> Optional[Tuple[bytes, int]]:
        """Recursive insert; returns (separator, new right page) on split."""
        if height == 1:
            return self._insert_leaf(node, key, value)
        keys, children = self._read_internal(node)
        idx = bisect_right(keys, key)
        split = self._insert_into(children[idx], height - 1, key, value)
        if split is None:
            return None
        sep_key, right_no = split
        keys.insert(idx, sep_key)
        children.insert(idx + 1, right_no)
        if len(keys) <= INTERNAL_CAPACITY:
            self._write_internal(node, keys, children)
            return None
        mid = len(keys) // 2
        up_key = keys[mid]
        right_page = self._pool.allocate()
        self._write_internal(right_page, keys[mid + 1 :], children[mid + 1 :])
        self._write_internal(node, keys[:mid], children[: mid + 1])
        return up_key, right_page

    def _insert_leaf(
        self, node: int, key: bytes, value: bytes
    ) -> Optional[Tuple[bytes, int]]:
        keys, values, next_leaf = self._read_leaf(node)
        i = bisect_left(keys, key)
        if i < len(keys) and keys[i] == key:
            values[i] = value  # overwrite
        else:
            keys.insert(i, key)
            values.insert(i, value)
            self._count += 1
        if len(keys) <= LEAF_CAPACITY:
            self._write_leaf(node, keys, values, next_leaf)
            return None
        mid = len(keys) // 2
        right_page = self._pool.allocate()
        self._write_leaf(right_page, keys[mid:], values[mid:], next_leaf)
        self._write_leaf(node, keys[:mid], values[:mid], right_page)
        return keys[mid], right_page

    def _write_leaf(self, page_no, keys, values, next_leaf) -> None:
        data = self._pool.get(page_no)
        data[:] = bytes(PAGE_SIZE)
        data[0] = _LEAF
        data[1:3] = len(keys).to_bytes(2, "big")
        data[3:11] = next_leaf.to_bytes(8, "big", signed=True)
        off = _HEADER_SIZE
        for key, value in zip(keys, values):
            data[off : off + KEY_SIZE] = key
            data[off + KEY_SIZE : off + _LEAF_ENTRY] = value
            off += _LEAF_ENTRY
        self._pool.mark_dirty(page_no)

    def _write_internal(self, page_no, keys, children) -> None:
        self._internal_cache.pop(page_no, None)
        data = self._pool.get(page_no)
        data[:] = bytes(PAGE_SIZE)
        data[0] = _INTERNAL
        data[1:3] = len(keys).to_bytes(2, "big")
        off = _HEADER_SIZE
        data[off : off + 8] = children[0].to_bytes(8, "big")
        off += 8
        for key, child in zip(keys, children[1:]):
            data[off : off + KEY_SIZE] = key
            data[off + KEY_SIZE : off + _INTERNAL_ENTRY] = child.to_bytes(8, "big")
            off += _INTERNAL_ENTRY
        self._pool.mark_dirty(page_no)
