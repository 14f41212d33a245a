"""Out-of-core SQLite-pushdown backing store (the ``sql`` engine backend).

Layout:

``store``
    :class:`SqlStore` — the dictionary-encoded rows in a private temporary
    SQLite database, plus the in-process encode state.
``relation``
    :class:`SqlRelation` / :class:`SqlDictionaryColumn` — drop-in relation
    and dictionary wrappers over a store.
``partitions``
    :class:`SqlPartitionManager` / :class:`SqlStrippedPartition` — partition
    manager whose group-heavy primitives run as SQL ``GROUP BY`` aggregates.
``discovery``
    :class:`CodePatternIndex` — an alias of the one discovery index,
    :class:`~repro.dataset.index.PatternIndex`, which works at
    dictionary-code granularity on every backend.
"""

from .discovery import CodeAttributeIndex, CodePatternIndex
from .partitions import SqlPartitionManager, SqlPatternState, SqlStrippedPartition
from .relation import SqlDictionaryColumn, SqlRelation
from .store import SqlStore

__all__ = [
    "CodeAttributeIndex",
    "CodePatternIndex",
    "SqlDictionaryColumn",
    "SqlPartitionManager",
    "SqlPatternState",
    "SqlRelation",
    "SqlStore",
    "SqlStrippedPartition",
]
