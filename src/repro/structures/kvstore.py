"""A small KV store over an immutable on-disk B-tree.

The store is the TokuDB-style pattern whose stable extents §4 measures:
an on-disk B-tree index with an in-memory update overlay, rebuilt in
batches.  ``rebuild()`` writes a fresh file and atomically renames it over
the old one; ``rebuild_appending()`` appends the new tree past EOF so the
file's extents only grow.  The LSM engine (RocksDB-style) is
:class:`~repro.structures.lsm.LsmTree`.

This facade is deliberately engine-shaped rather than kernel-shaped: the
BPF acceleration binds at the *file* level in the examples and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidArgument
from repro.structures.btree import BTree
from repro.structures.pages import FANOUT_MAX, PAGE_SIZE, FsBackend

__all__ = ["KvStore"]


class KvStore:
    """Dictionary-style API over an on-disk B-tree in the simulated FS."""

    def __init__(self, fs, path: str, fanout: int = FANOUT_MAX):
        self.fs = fs
        self.path = path
        self.fanout = fanout
        self._tree: Optional[BTree] = None
        self._overlay: Dict[int, int] = {}

    def bulk_load(self, items: List[Tuple[int, int]]) -> None:
        """Build the index file from sorted items."""
        if self.fs.exists(self.path):
            self.fs.unlink(self.path)
        inode = self.fs.create(self.path)
        self._tree = BTree.build(FsBackend(self.fs, inode), items,
                                 fanout=self.fanout)
        self._overlay = {}

    def _merged(self, operation: str) -> List[Tuple[int, int]]:
        """Every key of the index with the overlay applied."""
        if self._tree is None:
            raise InvalidArgument(f"{operation} needs a loaded btree")
        return self.scan(0, 2**64)

    def rebuild(self) -> int:
        """Merge the overlay into a fresh index file via rename.

        Returns the number of keys in the rebuilt index.  This is the batch
        index rebuild whose extent behaviour the stability experiment
        measures: a new file is written and renamed over the old one, so
        the old blocks are unmapped in one burst — the rare whole-file
        rewrite that also reclaims the garbage appending rebuilds leave
        (the "5 changes in 24 hours" of the paper's measurement).
        """
        items = self._merged("rebuild")
        temp_path = self.path + ".tmp"
        if self.fs.exists(temp_path):
            self.fs.unlink(temp_path)
        inode = self.fs.create(temp_path)
        BTree.build(FsBackend(self.fs, inode), items, fanout=self.fanout)
        self.fs.rename(temp_path, self.path)
        self._tree = BTree(FsBackend(self.fs, self.fs.lookup(self.path)))
        self._overlay = {}
        return len(items)

    def rebuild_appending(self) -> int:
        """Merge the overlay into a tree appended at EOF.

        Only the metadata page (offset 0) is overwritten in place; all new
        tree pages land past the current end of file, so the file's extents
        only *grow* — the TokuDB-style pattern the paper observes keeps the
        NVMe extent cache valid.  The superseded pages become garbage until
        :meth:`rebuild` reclaims them.
        """
        items = self._merged("rebuild_appending")
        inode = self.fs.lookup(self.path)
        end = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        end = max(end, PAGE_SIZE)
        backend = FsBackend(self.fs, inode)
        self._tree = BTree.build(backend, items, fanout=self.fanout,
                                 first_page_offset=end)
        self._overlay = {}
        return len(items)

    @property
    def overlay_size(self) -> int:
        return len(self._overlay)

    def put(self, key: int, value: int) -> None:
        self._overlay[key] = value

    def get(self, key: int) -> Optional[int]:
        if key in self._overlay:
            return self._overlay[key]
        if self._tree is None:
            return None
        return self._tree.lookup(key)

    def scan(self, low: int, high: int) -> List[Tuple[int, int]]:
        """All (key, value) with low <= key < high."""
        base = dict(self._tree.range_scan(low, high)) if self._tree else {}
        for key, value in self._overlay.items():
            if low <= key < high:
                base[key] = value
        return sorted(base.items())
