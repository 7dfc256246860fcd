"""Page codecs and file backends.

Every on-disk structure in this package is built from 4 KiB pages holding
fixed-width ``(u64 key, u64 value)`` entries behind a 16-byte header::

    offset  size  field
    0       4     magic (structure/page kind)
    4       2     level (B-tree: 0 = leaf; SSTable: block kind)
    6       2     nkeys
    8       8     reserved
    16      16*i  entries: key u64, value u64 (sorted by key)

The BPF traversal programs in :mod:`repro.core.library` parse exactly this
layout, byte for byte — the "application-defined structure pushed into the
kernel" of §4.
"""

from __future__ import annotations

import io
import struct
from typing import List, Optional, Tuple

from repro.errors import InvalidArgument

__all__ = [
    "BTREE_PAGE_MAGIC",
    "FANOUT_MAX",
    "FileBackend",
    "FsBackend",
    "HEADER",
    "MemoryBackend",
    "PAGE_HEADER_SIZE",
    "PAGE_SIZE",
    "SSTABLE_DATA_MAGIC",
    "SSTABLE_INDEX_MAGIC",
    "SSTABLE_META_MAGIC",
    "decode_page",
    "descend",
    "encode_page",
    "search_page",
]

PAGE_SIZE = 4096
PAGE_HEADER_SIZE = 16
#: Entries per page: (4096 - 16) / 16.
FANOUT_MAX = (PAGE_SIZE - PAGE_HEADER_SIZE) // 16

BTREE_PAGE_MAGIC = 0xB7EE0001
BTREE_META_MAGIC = 0xB7EE0000
SSTABLE_META_MAGIC = 0x55AB0000
SSTABLE_INDEX_MAGIC = 0x55AB0001
SSTABLE_DATA_MAGIC = 0x55AB0002

HEADER = struct.Struct("<IHHQ")
ENTRY = struct.Struct("<QQ")


def encode_page(magic: int, level: int,
                entries: List[Tuple[int, int]]) -> bytes:
    """Encode one page; entries must be sorted by key and fit the page."""
    if len(entries) > FANOUT_MAX:
        raise InvalidArgument(
            f"{len(entries)} entries exceed page fanout {FANOUT_MAX}")
    for index in range(1, len(entries)):
        if entries[index - 1][0] > entries[index][0]:
            raise InvalidArgument("page entries must be sorted by key")
    page = bytearray(PAGE_SIZE)
    HEADER.pack_into(page, 0, magic, level, len(entries), 0)
    for index, (key, value) in enumerate(entries):
        ENTRY.pack_into(page, PAGE_HEADER_SIZE + 16 * index, key, value)
    return bytes(page)


def decode_page(page: bytes) -> Tuple[int, int, List[Tuple[int, int]]]:
    """Decode (magic, level, entries) from page bytes."""
    if len(page) < PAGE_SIZE:
        raise InvalidArgument(f"page is {len(page)} bytes, expected "
                              f"{PAGE_SIZE}")
    magic, level, nkeys, _reserved = HEADER.unpack_from(page, 0)
    if nkeys > FANOUT_MAX:
        raise InvalidArgument(f"corrupt page: nkeys={nkeys}")
    entries = [
        ENTRY.unpack_from(page, PAGE_HEADER_SIZE + 16 * index)
        for index in range(nkeys)
    ]
    return magic, level, entries


def search_page(page: bytes, key: int) -> Tuple[int, Optional[int]]:
    """Find ``key``'s position in a page, the way the BPF program does.

    Returns ``(index, value)`` where ``index`` is the largest entry index
    with ``entry_key <= key`` (or -1 if the key precedes every entry) and
    ``value`` is that entry's value (None when index is -1).
    """
    _magic, _level, nkeys, _reserved = HEADER.unpack_from(page, 0)
    lo, hi = 0, nkeys  # invariant: entries[<lo] <= key < entries[>=hi]
    while lo < hi:
        mid = (lo + hi) // 2
        entry_key, _value = ENTRY.unpack_from(page,
                                              PAGE_HEADER_SIZE + 16 * mid)
        if entry_key <= key:
            lo = mid + 1
        else:
            hi = mid
    index = lo - 1
    if index < 0:
        return -1, None
    _key, value = ENTRY.unpack_from(page, PAGE_HEADER_SIZE + 16 * index)
    return index, value


def descend(backend: FileBackend, offset: int, levels: int,
            key: int) -> Optional[int]:
    """Look ``key`` up from the page at ``offset`` down ``levels`` index
    levels to a leaf, one page read per level, the way the BPF traversal
    programs do: the value, or None.  The B-tree and the SSTable differ
    only in ``levels``."""
    for _level in range(levels):
        _index, offset = search_page(backend.read(offset, PAGE_SIZE), key)
        if offset is None:
            return None
    page = backend.read(offset, PAGE_SIZE)
    index, value = search_page(page, key)
    if index < 0 or \
            ENTRY.unpack_from(page, PAGE_HEADER_SIZE + 16 * index)[0] != key:
        return None
    return value


class FileBackend:
    """Byte-addressed storage a structure lives in."""

    def read(self, offset: int, length: int) -> bytes:
        raise NotImplementedError

    def write(self, offset: int, data: bytes) -> None:
        raise NotImplementedError

    def preallocate(self, offset: int, length: int) -> None:
        """Reserve space ahead of a bulk write (one allocation burst).

        Optional; the default is a no-op.  The FS-backed implementation
        maps the whole range in one go, so a bulk build appears to the
        extent-change listeners as a single growth event — the behaviour
        of a real file system with delayed allocation.
        """

    @property
    def size(self) -> int:
        raise NotImplementedError


class MemoryBackend(FileBackend):
    """A file held in memory, in one growable buffer.

    Every in-memory image is built here: each B-tree image
    (:meth:`~repro.structures.btree.BTree.build_image`, so every tree
    load and a cluster's index) and compaction's output table.  A read of
    the whole file hands over the buffer itself, with no copy; a partial
    read copies only its range; and a write after a whole read copies the
    buffer first, so bytes a read returned never change.
    """

    def __init__(self, data: bytes = b""):
        self._file = io.BytesIO(data)

    def read(self, offset: int, length: int) -> bytes:
        size = self.size
        if offset + length > size:
            raise InvalidArgument(
                f"read [{offset}, {offset + length}) beyond EOF ({size})")
        if offset == 0 and length == size:
            # CPython's getvalue() returns the buffer's own bytes object,
            # trimmed to size, and copies it on the next write.
            return self._file.getvalue()
        self._file.seek(offset)
        return self._file.read(length)

    def write(self, offset: int, data: bytes) -> None:
        # Past EOF the gap reads as zeros; an empty write changes nothing.
        self._file.seek(offset)
        self._file.write(data)

    @property
    def size(self) -> int:
        return self._file.seek(0, io.SEEK_END)


class FsBackend(FileBackend):
    """A backend over a file in the simulated file system (untimed access).

    Timed access happens through the kernel read paths in experiments; this
    backend is for structure construction and reference lookups.
    """

    def __init__(self, fs, inode):
        self.fs = fs
        self.inode = inode

    def read(self, offset: int, length: int) -> bytes:
        return self.fs.read_sync(self.inode, offset, length)

    def write(self, offset: int, data: bytes) -> None:
        self.fs.write_sync(self.inode, offset, data)

    def preallocate(self, offset: int, length: int) -> None:
        self.fs.ensure_allocated(self.inode, offset, length)

    @property
    def size(self) -> int:
        return self.inode.size
