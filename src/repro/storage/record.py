"""Record encoding shared by the B+tree and LSM stores.

Both stores index trajectory points by the composite key ``(t, oid)`` — the
layout §5 of the paper proposes — with the position ``(x, y)`` as the value.
Keys are 16-byte big-endian so that byte-wise comparison equals numeric
comparison (timestamps and object ids must be non-negative, which every
generator here guarantees).
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from typing import Optional, Tuple

KEY_SIZE = 16
VALUE_SIZE = 16
RECORD_SIZE = KEY_SIZE + VALUE_SIZE

_KEY = struct.Struct(">qq")
_VALUE = struct.Struct(">dd")

#: Smallest and largest possible keys (range-scan sentinels).
MIN_KEY = _KEY.pack(0, 0)
MAX_KEY = _KEY.pack(2**62, 2**62)

#: Reserved 16-byte value marking a deletion (LSM tombstone).  The bit
#: pattern decodes to two all-ones NaNs, which no generator or encoder
#: ever produces for a real position.
TOMBSTONE = b"\xff" * VALUE_SIZE


def encode_key(t: int, oid: int) -> bytes:
    """16-byte order-preserving key for ``(t, oid)``."""
    if t < 0 or oid < 0:
        raise ValueError(f"keys must be non-negative, got ({t}, {oid})")
    return _KEY.pack(t, oid)


def decode_key(data: bytes) -> Tuple[int, int]:
    return _KEY.unpack(data)


def encode_value(x: float, y: float) -> bytes:
    return _VALUE.pack(x, y)


def decode_value(data: bytes) -> Tuple[float, float]:
    return _VALUE.unpack(data)


def time_range_keys(t: int) -> Tuple[bytes, bytes]:
    """Key range covering every object at timestamp ``t``."""
    return _KEY.pack(t, 0), _KEY.pack(t, 2**62)


def find_record(buf, offsets: range, key: bytes, lo: int = 0) -> int:
    """Index into ``offsets`` of the first record in ``buf`` keyed ``>= key``.

    ``buf`` (bytes or a page bytearray) holds key-sorted records whose
    16-byte keys start at ``offsets``.  The binary search slices only the
    keys it compares, so a B+tree leaf or SSTable block is searched in
    place without decoding its records.
    """
    return bisect_left(offsets, key, lo, key=lambda off: buf[off : off + KEY_SIZE])


def lookup_record(
    buf, offsets: range, key: bytes, lo: int = 0
) -> Tuple[int, Optional[bytes]]:
    """:func:`find_record`, plus a copy of ``key``'s value when present."""
    pos = find_record(buf, offsets, key, lo)
    if pos < len(offsets):
        off = offsets[pos]
        if buf[off : off + KEY_SIZE] == key:
            return pos, bytes(buf[off + KEY_SIZE : off + RECORD_SIZE])
    return pos, None
