"""A bulk-loaded on-disk B+-tree (the paper's benchmark structure).

The tree is built bottom-up from sorted key/value pairs with a configurable
fanout — small fanouts force deep trees, which is how the Figure 3
experiments sweep depth.  Page 0 is a metadata page (root offset, depth,
entry count); every other page is a :mod:`~repro.structures.pages` page.

Interior entries are ``(separator_key, child_page_offset)`` where the
separator is the smallest key in the child's subtree; a lookup descends by
"largest separator <= key" at every level, which is also exactly what the
BPF traversal program does one block at a time.

Following the paper's simplification (§3), leaves store user values
directly, and the tree is immutable once built — updates are applied by
rebuilding (batch rebuild), which is what keeps its extents stable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import InvalidArgument
from repro.structures.pages import (
    BTREE_META_MAGIC,
    BTREE_PAGE_MAGIC,
    FANOUT_MAX,
    PAGE_SIZE,
    FileBackend,
    FsBackend,
    MemoryBackend,
    decode_page,
    descend,
    encode_page,
)

__all__ = ["BTree", "BTreeMeta"]

_META = struct.Struct("<IHHQQQ")  # magic, depth, fanout, root_off, nkeys, _


@dataclass(frozen=True)
class BTreeMeta:
    """Contents of the metadata page."""

    depth: int
    fanout: int
    root_offset: int
    num_keys: int

    def encode(self) -> bytes:
        page = bytearray(PAGE_SIZE)
        _META.pack_into(page, 0, BTREE_META_MAGIC, self.depth, self.fanout,
                        self.root_offset, self.num_keys, 0)
        return bytes(page)

    @classmethod
    def decode(cls, page: bytes) -> "BTreeMeta":
        magic, depth, fanout, root_offset, num_keys, _ = _META.unpack_from(
            page, 0)
        if magic != BTREE_META_MAGIC:
            raise InvalidArgument(f"not a B-tree meta page (magic {magic:#x})")
        return cls(depth, fanout, root_offset, num_keys)


class BTree:
    """Read-side handle over a built tree image."""

    def __init__(self, backend: FileBackend):
        self.backend = backend
        self.meta = BTreeMeta.decode(backend.read(0, PAGE_SIZE))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @staticmethod
    def build(backend: FileBackend, items: Iterable[Tuple[int, int]],
              fanout: int = FANOUT_MAX,
              first_page_offset: int = PAGE_SIZE) -> "BTree":
        """Bulk-load sorted ``(key, value)`` pairs into ``backend``.

        ``first_page_offset`` places the tree's pages; the metadata page is
        always (re)written at offset 0.  Appending a rebuilt tree at EOF
        while only overwriting the meta page is the TokuDB-style pattern
        that keeps extents stable (growth only, no unmaps).
        """
        if not 2 <= fanout <= FANOUT_MAX:
            raise InvalidArgument(
                f"fanout must be in [2, {FANOUT_MAX}], got {fanout}")
        if first_page_offset % PAGE_SIZE != 0 or first_page_offset < PAGE_SIZE:
            raise InvalidArgument("first_page_offset must be a positive "
                                  "page multiple")
        items = list(items)
        if not items:
            raise InvalidArgument("cannot build an empty B-tree")
        for index in range(1, len(items)):
            if items[index - 1][0] >= items[index][0]:
                raise InvalidArgument("keys must be strictly increasing")

        # Build levels bottom-up.  Each level is a list of
        # (first_key, entries) pages.
        def chunk(seq: List, size: int) -> List[List]:
            return [seq[i : i + size] for i in range(0, len(seq), size)]

        levels: List[List[Tuple[int, List[Tuple[int, int]]]]] = []
        leaf_pages = [
            (group[0][0], group) for group in chunk(items, fanout)
        ]
        levels.append(leaf_pages)
        while len(levels[-1]) > 1:
            children = levels[-1]
            parents = []
            for group in chunk(list(range(len(children))), fanout):
                entries = [
                    (children[child][0], child)  # value fixed up below
                    for child in group
                ]
                parents.append((entries[0][0], entries))
            levels.append(parents)

        # Assign page offsets: meta at 0, tree pages from first_page_offset.
        offsets: List[List[int]] = []
        next_offset = first_page_offset
        for level in levels:
            level_offsets = []
            for _ in level:
                level_offsets.append(next_offset)
                next_offset += PAGE_SIZE
            offsets.append(level_offsets)

        # Reserve the whole region in one burst (one extent-change event),
        # then serialise.
        backend.preallocate(first_page_offset,
                            next_offset - first_page_offset)
        for level_index, level in enumerate(levels):
            is_leaf = level_index == 0
            for page_index, (_first, entries) in enumerate(level):
                if is_leaf:
                    encoded = encode_page(BTREE_PAGE_MAGIC, 0, entries)
                else:
                    fixed = [
                        (key, offsets[level_index - 1][child])
                        for key, child in entries
                    ]
                    encoded = encode_page(BTREE_PAGE_MAGIC, level_index,
                                          fixed)
                backend.write(offsets[level_index][page_index], encoded)

        meta = BTreeMeta(depth=len(levels), fanout=fanout,
                         root_offset=offsets[-1][0], num_keys=len(items))
        backend.write(0, meta.encode())
        return BTree(backend)

    @staticmethod
    def build_image(items: Iterable[Tuple[int, int]],
                    fanout: int = FANOUT_MAX) -> bytes:
        """The file :meth:`build` writes, built in memory: the meta page
        at 0 and the tree pages from ``PAGE_SIZE``."""
        memory = MemoryBackend()
        BTree.build(memory, items, fanout=fanout)
        return memory.read(0, memory.size)

    @staticmethod
    def write_image(fs, path: str, image: bytes) -> "BTree":
        """Create ``path`` on ``fs`` holding ``image`` (from
        :meth:`build_image`), without simulated time.

        The tree pages are preallocated in one burst and written as one
        view, then the meta page, so the file's bytes and extents and the
        data blocks on the device are those of :meth:`build` through an
        :class:`~repro.structures.pages.FsBackend`.  The device keeps views
        of ``bytes``, so every file written from one image shares its
        bytes.
        """
        image = memoryview(image)
        backend = FsBackend(fs, fs.create(path))
        backend.preallocate(PAGE_SIZE, len(image) - PAGE_SIZE)
        backend.write(PAGE_SIZE, image[PAGE_SIZE:])
        backend.write(0, image[:PAGE_SIZE])
        return BTree(backend)

    # ------------------------------------------------------------------
    # Lookup (reference implementation; experiments use the kernel paths)
    # ------------------------------------------------------------------

    def lookup(self, key: int) -> Optional[int]:
        """Value for ``key``, or None; reads ``depth`` pages."""
        return descend(self.backend, self.meta.root_offset,
                       self.meta.depth - 1, key)

    def range_scan(self, low: int, high: int) -> List[Tuple[int, int]]:
        """All (key, value) pairs with low <= key < high (leaf walk)."""
        results: List[Tuple[int, int]] = []
        self._scan_node(self.meta.root_offset, self.meta.depth, low, high,
                        results)
        return results

    def _scan_node(self, offset: int, depth: int, low: int, high: int,
                   results: List[Tuple[int, int]]) -> None:
        page = self.backend.read(offset, PAGE_SIZE)
        _magic, _level, entries = decode_page(page)
        if depth == 1:
            results.extend((k, v) for k, v in entries if low <= k < high)
            return
        for index, (sep, child) in enumerate(entries):
            next_sep = entries[index + 1][0] if index + 1 < len(entries) \
                else None
            if next_sep is not None and next_sep <= low:
                continue
            if sep >= high:
                break
            self._scan_node(child, depth - 1, low, high, results)

    @property
    def depth(self) -> int:
        return self.meta.depth

    @staticmethod
    def keys_for_depth(depth: int, fanout: int) -> int:
        """Smallest key count that yields exactly ``depth`` levels."""
        if depth < 1:
            raise InvalidArgument("depth must be >= 1")
        if depth == 1:
            return 1
        # f^(d-1) keys still fit in depth d-1; one more key forces depth d.
        return fanout ** (depth - 1) + 1
