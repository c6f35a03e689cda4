"""Classic external hash tables: the substrates the paper builds on.

* :class:`~repro.tables.chaining.ChainedHashTable` — the standard table
  (Knuth [13]), the paper's ``1 + 1/2^{Ω(b)}`` upper-bound point.
* :class:`~repro.tables.linear_probing.LinearProbingHashTable` — blocked
  open addressing (Knuth [13, §6.4]).
* :class:`~repro.tables.extendible.ExtendibleHashTable` — Fagin et al. [10].
* :class:`~repro.tables.linear_hashing.LinearHashingTable` — Litwin [14].
"""

from .base import ExternalDictionary, LayoutSnapshot, TableStats
from .chaining import ChainedHashTable
from .extendible import ExtendibleHashTable
from .linear_hashing import LinearHashingTable
from .linear_probing import LinearProbingHashTable
from .overflow import ChainedBucket
from .rebalance import MigrationReport, Rebalancer, SlotMove, apply_moves
from .sharded import ShardedDictionary, SlotDirectory, make_sharded, shard_view

__all__ = [
    "ExternalDictionary",
    "LayoutSnapshot",
    "TableStats",
    "ChainedBucket",
    "ChainedHashTable",
    "ExtendibleHashTable",
    "LinearHashingTable",
    "LinearProbingHashTable",
    "MigrationReport",
    "Rebalancer",
    "ShardedDictionary",
    "SlotDirectory",
    "SlotMove",
    "apply_moves",
    "make_sharded",
    "shard_view",
]
