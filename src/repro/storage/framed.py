"""The CRC-framed record log shared by the feed WAL, checkpoints and cold segments.

A log is an optional fixed header followed by frames::

    [u32 crc32(payload)][u32 len(payload)][payload]

big-endian, the checksum over the payload only.  :func:`scan` walks the
frames and stops at the first one that is cut short (``"torn frame"``)
or fails its checksum (``"checksum mismatch"``), so a crash mid-append
costs at most the record being written.

The torn-tail contract lives in :func:`open_append`: before a log takes
new appends it is truncated to its last good frame.  Readers stop at
the first bad frame, so appending after torn bytes would hide every
later, acknowledged record behind them.

The LSM tree's ``wal.log`` is not built on this frame: its checksum
also covers its length fields (:mod:`repro.storage.lsm.wal`).
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import BinaryIO, List, NamedTuple, Optional

logger = logging.getLogger(__name__)

FRAME = struct.Struct(">II")  # crc32(payload), payload length

TORN = "torn frame"
CORRUPT = "checksum mismatch"


class Scan(NamedTuple):
    """What :func:`scan` verified in one log."""

    payloads: List[bytes]  # verified payloads, in append order
    end: int  # offset just past the last good frame (or the header)
    size: int  # bytes scanned
    stop: Optional[str]  # None when clean, else TORN or CORRUPT


def encode(payload: bytes) -> bytes:
    """One frame carrying ``payload``."""
    return FRAME.pack(zlib.crc32(payload), len(payload)) + payload


def scan(data: bytes, start: int = 0) -> Scan:
    """Verify the frames of ``data`` from ``start`` up to the first bad one."""
    payloads: List[bytes] = []
    offset = start
    stop = None
    while offset < len(data):
        if offset + FRAME.size > len(data):
            stop = TORN
            break
        crc, length = FRAME.unpack_from(data, offset)
        body = offset + FRAME.size
        if body + length > len(data):
            stop = TORN
            break
        payload = data[body:body + length]
        if zlib.crc32(payload) != crc:
            stop = CORRUPT
            break
        payloads.append(payload)
        offset = body + length
    return Scan(payloads, offset, len(data), stop)


def read(path: str, header: bytes = b"") -> Optional[Scan]:
    """Scan the log at ``path`` past its ``header``.

    A missing file scans clean and empty; one shorter than the header
    (a crash before the header landed) scans empty up to offset 0.
    Returns ``None`` when the file starts with a different header.
    """
    if not os.path.exists(path):
        return Scan([], 0, 0, None)
    with open(path, "rb") as handle:
        data = handle.read()
    if len(data) < len(header):
        return Scan([], 0, len(data), TORN if data else None)
    if not data.startswith(header):
        return None
    return scan(data, len(header))


def open_append(path: str, header: bytes = b"") -> BinaryIO:
    """Open ``path`` for appends, truncated to its last good frame.

    A new (or headerless) file gets ``header`` first.  Raises
    ``ValueError`` when the file carries a different header.
    """
    found = read(path, header)
    if found is None:
        raise ValueError(f"{path}: does not start with header {header!r}")
    if found.end < found.size:
        logger.warning(
            "%s: %s at offset %d; truncated %d bytes so new appends stay "
            "readable", path, found.stop, found.end, found.size - found.end,
        )
        os.truncate(path, found.end)
    handle = open(path, "ab")
    if handle.tell() == 0 and header:
        handle.write(header)
        handle.flush()
    return handle
