"""Serving layer: sharded ingestion, persistent convoy index, query engine.

The batch miner (``repro.core.K2Hop``) answers one question — "mine every
convoy" — by reading a stored dataset.  This subsystem answers the
*serving* questions an online deployment needs: feed snapshots in as they
arrive (sharded spatially, reconciled exactly at the borders), persist
convoys as they close, and query them at interactive latency.
"""

from .backends import (
    BACKENDS,
    MemoryResultBackend,
    ResultBackend,
    open_backend,
)
from .catalog import create_index, open_index
from .index import BBox, ConvoyIndex, IndexedConvoy
from .ingest import ConvoyIngestService, IngestStats
from .query import CacheStats, ConvoyQueryEngine
from .reconcile import merge_fragments
from .sharding import GridSharder, ShardView

__all__ = [
    "BACKENDS",
    "BBox",
    "CacheStats",
    "ConvoyIndex",
    "ConvoyIngestService",
    "ConvoyQueryEngine",
    "GridSharder",
    "IndexedConvoy",
    "IngestStats",
    "MemoryResultBackend",
    "ResultBackend",
    "ShardView",
    "create_index",
    "merge_fragments",
    "open_backend",
    "open_index",
]
