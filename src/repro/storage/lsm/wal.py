"""Write-ahead log: durability for the memtable between flushes.

Each entry is ``crc32 len(key) len(value) key value`` with 32-bit
fields; the checksum covers the lengths and both payloads, so replay
detects not just a truncated final record (a torn write) but also a
bit-flipped or overwritten tail.  Recovery keeps every verified entry up
to the first bad one and logs a warning for whatever was dropped — the
same contract real LSM engines ship (RocksDB's ``kTolerateCorruptedTailRecords``).
:meth:`WriteAheadLog.recover` then truncates the bad tail, so appends
made after a restart are never hidden behind it.

The frame differs from :mod:`repro.storage.framed` (its checksum also
covers the length fields), so this log keeps its own scanner.

Appends are flushed to the OS on every record, so a killed *process*
(SIGKILL) loses nothing that ``append`` returned for; surviving a killed
*machine* additionally needs :meth:`WriteAheadLog.sync` (fsync), which
callers invoke at their own durability boundary.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import Iterator, Tuple

from ...testing.faults import FAULTS

logger = logging.getLogger(__name__)

_HEADER = struct.Struct(">III")  # crc32, key length, value length
_LENGTHS = struct.Struct(">II")


class WriteAheadLog:
    """Append-only, checksummed log of key/value writes."""

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "ab")

    def append(self, key: bytes, value: bytes) -> None:
        lengths = _LENGTHS.pack(len(key), len(value))
        crc = zlib.crc32(lengths)
        crc = zlib.crc32(key, crc)
        crc = zlib.crc32(value, crc)
        record = struct.pack(">I", crc) + lengths + key + value
        FAULTS.partial_write("lsm.wal.append", self._file, record)
        # Per-record flush moves the bytes into the OS: a SIGKILL'd
        # process then cannot lose an acknowledged append to Python's
        # userspace buffer.
        self._file.flush()

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def truncate(self) -> None:
        """Discard the log after a successful memtable flush."""
        self._file.close()
        self._file = open(self.path, "wb")

    def close(self) -> None:
        self._file.close()

    def recover(self) -> Iterator[Tuple[bytes, bytes]]:
        """Replay this log, then truncate it to the last verified entry."""
        end = 0
        for end, key, value in WriteAheadLog._entries(self.path):
            yield key, value
        if end < os.path.getsize(self.path):
            self._file.truncate(end)

    @staticmethod
    def replay(path: str) -> Iterator[Tuple[bytes, bytes]]:
        """Yield verified entries in write order; stop at a bad tail.

        A record that is truncated *or* fails its checksum ends the
        replay: everything before it is recovered, the bad tail is
        reported via :mod:`logging` and ignored (:meth:`recover` or the
        next ``truncate`` discards it for good).
        """
        for _, key, value in WriteAheadLog._entries(path):
            yield key, value

    @staticmethod
    def _entries(path: str) -> Iterator[Tuple[int, bytes, bytes]]:
        """``(end offset, key, value)`` per verified entry."""
        if not os.path.exists(path):
            return
        with open(path, "rb") as handle:
            data = handle.read()
        offset = 0
        while offset + _HEADER.size <= len(data):
            crc, key_len, value_len = _HEADER.unpack_from(data, offset)
            body_start = offset + struct.calcsize(">I")
            end = offset + _HEADER.size + key_len + value_len
            if end > len(data):
                logger.warning(
                    "WAL %s: torn record at offset %d (%d bytes dropped)",
                    path, offset, len(data) - offset,
                )
                return
            if zlib.crc32(data[body_start:end]) != crc:
                logger.warning(
                    "WAL %s: checksum mismatch at offset %d "
                    "(%d bytes dropped); recovered to last good record",
                    path, offset, len(data) - offset,
                )
                return
            key_start = offset + _HEADER.size
            yield (
                end,
                data[key_start : key_start + key_len],
                data[key_start + key_len : end],
            )
            offset = end
        if offset != len(data):
            logger.warning(
                "WAL %s: torn record header at offset %d (%d bytes dropped)",
                path, offset, len(data) - offset,
            )
