"""On-disk data structures the paper's workloads traverse.

* :mod:`~repro.structures.pages` — 4 KiB page codecs shared by the Python
  implementations and the BPF programs (same byte layout).
* :mod:`~repro.structures.btree` — a bulk-loaded on-disk B+-tree with
  configurable fanout (hence depth), the paper's headline benchmark
  structure.
* :mod:`~repro.structures.lsm` — an LSM tree: memtable, immutable SSTables
  with two-level block index and bloom filters, leveled compaction.  Its
  immutable-file discipline is the paper's motivating example for stable
  extents.
* :mod:`~repro.structures.kvstore` — a small KV store: an on-disk B-tree
  with an in-memory update overlay, rebuilt in batches.

Structures operate over a :class:`~repro.structures.pages.FileBackend`, so
they are independent of the simulated kernel; the examples and benchmarks
bind them to files in the simulated file system and accelerate their reads
with the BPF chain programs from :mod:`repro.core.library`.
"""

from repro.structures.btree import BTree, BTreeMeta
from repro.structures.kvstore import KvStore
from repro.structures.lsm import CompactionPlan, LsmTree, SsTable, TOMBSTONE
from repro.structures.wisckey import WisckeyStore
from repro.structures.pages import (
    BTREE_PAGE_MAGIC,
    FANOUT_MAX,
    FileBackend,
    FsBackend,
    MemoryBackend,
    PAGE_SIZE,
)

__all__ = [
    "BTREE_PAGE_MAGIC",
    "BTree",
    "BTreeMeta",
    "CompactionPlan",
    "FANOUT_MAX",
    "FileBackend",
    "FsBackend",
    "KvStore",
    "LsmTree",
    "MemoryBackend",
    "PAGE_SIZE",
    "SsTable",
    "TOMBSTONE",
    "WisckeyStore",
]
