"""From-scratch log-structured merge tree."""

from .bloom import BloomFilter
from .compaction import merge_runs
from .memtable import MemTable
from .sstable import SSTable, write_sstable
from .tree import LSMTree
from .wal import WriteAheadLog

__all__ = [
    "BloomFilter",
    "LSMTree",
    "MemTable",
    "SSTable",
    "WriteAheadLog",
    "merge_runs",
    "write_sstable",
]
