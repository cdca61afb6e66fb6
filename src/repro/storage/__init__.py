"""Bucket storage backends for M-Index leaf cells.

Table 2 of the paper configures *memory storage* for the small data sets
and *disk storage* for CoPhIR. Both backends store lists of
:class:`~repro.core.records.IndexedRecord` keyed by Voronoi-cell id and
account their I/O (bytes and operation counts) so the ablation benches
can compare them.
"""

from repro.storage.chunks import DEFAULT_CHUNK_RAW_BYTES, BlockCache
from repro.storage.disk import DEFAULT_CACHE_BYTES, DiskStorage
from repro.storage.manifest import MANIFEST_NAME
from repro.storage.memory import MemoryStorage

__all__ = [
    "BlockCache",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_CHUNK_RAW_BYTES",
    "DiskStorage",
    "MANIFEST_NAME",
    "MemoryStorage",
]
