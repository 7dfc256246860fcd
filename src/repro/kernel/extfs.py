"""An extent-based file system (the simulated ext4).

Provides the pieces of ext4 the paper's design interacts with:

* hierarchical namespace (create/mkdir/lookup/unlink/rename);
* per-inode extent trees mapping 4 KiB file blocks to physical blocks;
* a block allocator with controllable fragmentation, so experiments can
  force the multi-extent files that trigger the BIO split fallback;
* extent-change notifications — the file-system hook of §4 that drives
  NVMe-layer extent-cache invalidation.  Growing a file (pure allocation)
  reports ``"grow"``; unmapping or moving blocks reports ``"unmap"``, and
  only the latter must invalidate.

Metadata is authoritative in memory for the hot read paths the paper
measures; when a :class:`~repro.kernel.journal.JournalConfig` is supplied it
is *also* made durable through a write-ahead metadata journal plus
checkpoints in a reserved on-media region, so the file system survives a
simulated power cut (see :mod:`repro.kernel.journal` and
:mod:`repro.kernel.recovery`).  Every mutating operation then runs inside a
journal transaction and appends logical records (create/mkdir/unlink/
rename/alloc/punch/size); ``fsync`` through the kernel commits them.

File *data* lives on the backing :class:`~repro.device.blockdev.BlockDevice`.
``read_sync``/``write_sync`` move data without simulated time for test and
workload setup; timed data paths go through the kernel's BIO/NVMe layers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.device.blockdev import SECTOR_SIZE, BlockDevice
from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotADirectory,
)
from repro.kernel.extent import Extent, ExtentTree
from repro.kernel.journal import Journal, JournalConfig, serialize_fs
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS

__all__ = ["BLOCK_SIZE", "ExtFs", "Inode", "SECTORS_PER_BLOCK"]

BLOCK_SIZE = 4096
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE


class Inode:
    """One file or directory."""

    def __init__(self, number: int, is_dir: bool):
        self.number = number
        self.is_dir = is_dir
        self.size = 0
        self.extents = ExtentTree()
        self.entries: Dict[str, "Inode"] = {} if is_dir else None

    def __repr__(self) -> str:
        kind = "dir" if self.is_dir else "file"
        return f"Inode({self.number}, {kind}, {self.size}B)"


class _Allocator:
    """Free-space manager over whole file-system blocks."""

    def __init__(self, total_blocks: int, reserved: int = 1):
        if total_blocks <= reserved:
            raise InvalidArgument("device too small for a file system")
        # Sorted list of (start, count) free runs.
        self._free: List[Tuple[int, int]] = [(reserved, total_blocks - reserved)]
        self.total_blocks = total_blocks

    def free_blocks(self) -> int:
        return sum(count for _start, count in self._free)

    def allocate(self, blocks: int,
                 max_run: int) -> List[Tuple[int, int]]:
        """Take ``blocks`` blocks as one or more runs of at most ``max_run``.

        When ``max_run`` truncates a run, a one-block guard gap is skipped
        before the next piece so the resulting extents are genuinely
        discontiguous — the deterministic fragmentation knob that forces the
        BIO layer's multi-extent split path in experiments.
        """
        if blocks < 1:
            raise InvalidArgument("allocation must be >= 1 block")
        if blocks > self.free_blocks():
            raise NoSpace(f"need {blocks} blocks, "
                          f"{self.free_blocks()} free")
        pieces: List[Tuple[int, int]] = []
        need = blocks
        while need > 0:
            start, count = self._free[0]
            take = min(need, count, max_run)
            pieces.append((start, take))
            consumed = take
            if take < need and take == max_run and count > take:
                consumed = min(count, take + 1)  # guard gap
            if consumed == count:
                self._free.pop(0)
            else:
                self._free[0] = (start + consumed, count - consumed)
            need -= take
        return pieces

    def release(self, start: int, count: int) -> None:
        """Return a run to the free list, coalescing neighbours."""
        runs = self._free + [(start, count)]
        runs.sort()
        merged: List[Tuple[int, int]] = []
        for run_start, run_count in runs:
            if merged and merged[-1][0] + merged[-1][1] >= run_start:
                prev_start, prev_count = merged[-1]
                if prev_start + prev_count > run_start:
                    raise InvalidArgument("double free of blocks")
                merged[-1] = (prev_start, prev_count + run_count)
            else:
                merged.append((run_start, run_count))
        self._free = merged

    def reserve_run(self, start: int, count: int) -> None:
        """Mark ``[start, start+count)`` as in use (recovery rebuild).

        The run must currently be free; overlap with an already-reserved
        run raises, which is how recovery surfaces extent overlap baked
        into corrupt metadata.
        """
        if count < 1:
            raise InvalidArgument("reserve_run needs count >= 1")
        for index, (run_start, run_count) in enumerate(self._free):
            if run_start <= start and \
                    start + count <= run_start + run_count:
                pieces = []
                if start > run_start:
                    pieces.append((run_start, start - run_start))
                tail = run_start + run_count - (start + count)
                if tail:
                    pieces.append((start + count, tail))
                self._free[index : index + 1] = pieces
                return
        raise InvalidArgument(
            f"blocks [{start}, {start + count}) are not free")


class _TxnScope:
    """Context manager bracketing one journal transaction (no-op when the
    file system has no journal)."""

    __slots__ = ("journal",)

    def __init__(self, journal: Optional[Journal]):
        self.journal = journal

    def __enter__(self) -> "_TxnScope":
        if self.journal is not None:
            self.journal.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.journal is not None:
            self.journal.end()
        return False


class ExtFs:
    """The file system: namespace + extents + allocator + media access."""

    def __init__(self, media: BlockDevice,
                 max_extent_blocks: int = 32768,
                 journal_config: Optional[JournalConfig] = None):
        self.media = media
        self.total_blocks = media.capacity_sectors // SECTORS_PER_BLOCK
        if journal_config is not None:
            self.journal: Optional[Journal] = Journal(media, journal_config)
            reserved = self.journal.reserved_blocks
        else:
            self.journal = None
            reserved = 1
        self._allocator = _Allocator(self.total_blocks, reserved=reserved)
        self.max_extent_blocks = max_extent_blocks
        self._next_ino = 2
        self.root = Inode(1, is_dir=True)
        #: Subscribers notified as ``fn(inode, kind)`` with kind in
        #: {"grow", "unmap"} on every extent mutation.
        self.extent_change_listeners: List[Callable[[Inode, str], None]] = []
        #: Subscribers notified (no arguments) after crash recovery has
        #: rebuilt this file system from media — any layer caching derived
        #: metadata (the NVMe-layer extent cache) must drop it.
        self.recovery_listeners: List[Callable[[], None]] = []
        #: Observability: the kernel that owns this fs points these at its
        #: tracepoint bus and simulated clock; standalone ExtFs instances
        #: (unit tests, setup paths) keep the disabled defaults.
        self.bus = NULL_BUS
        self.clock: Callable[[], int] = lambda: 0
        self.resolve_cost_ns = 0
        #: Blocks punched by not-yet-committed txns.  They leave the
        #: extent trees immediately but rejoin the allocator only when the
        #: freeing txn is durable — reuse before commit would let new data
        #: overwrite blocks a crash rollback still references.
        self._pending_frees: List[Tuple[int, int]] = []
        #: Partial-block tail zeroings owed by not-yet-committed truncates,
        #: as (inode, file_block, lo, hi) byte ranges within the block.
        #: Zeroing in place immediately would destroy committed data if
        #: the truncate rolls back; like ext4's ordered data path, the
        #: zeros reach media only once the shrinking txn is durable.
        self._pending_zeroes: List[Tuple[Inode, int, int, int]] = []
        if self.journal is not None:
            self.journal.commit_listeners.append(self._release_pending_frees)
            self.journal.commit_listeners.append(self._apply_pending_zeroes)
        if self.journal is not None:
            # mkfs: an empty checkpoint + superblock, so a crash before the
            # first commit still recovers to a valid (empty) file system.
            self.journal.checkpoint_sync(serialize_fs(self))

    # ------------------------------------------------------------------
    # Journal plumbing
    # ------------------------------------------------------------------

    def txn(self) -> _TxnScope:
        """Open a journal transaction scope (re-entrant, no-op without a
        journal).  Callers composing several mutations that must land
        atomically — the kernel's write path pairing an allocation with
        its size update — bracket them with this."""
        return _TxnScope(self.journal)

    def _log(self, record: Dict[str, object]) -> None:
        if self.journal is not None:
            self.journal.log(record)

    def checkpoint_sync(self) -> None:
        """Serialise all metadata to the on-media checkpoint, untimed.

        Used after untimed setup (``create_file``/``write_sync``) so that
        a subsequent crash does not roll back to an empty file system, and
        by the kernel's fsync path when the journal region fills.
        """
        if self.journal is None:
            raise InvalidArgument("file system has no journal")
        self.journal.checkpoint_sync(serialize_fs(self))

    def notify_recovery(self) -> None:
        """Tell derived-metadata caches that recovery replaced the fs."""
        for listener in self.recovery_listeners:
            listener()

    def _release_pending_frees(self) -> None:
        for start, count in self._pending_frees:
            self._allocator.release(start, count)
        self._pending_frees.clear()

    def _apply_pending_zeroes(self) -> None:
        pending, self._pending_zeroes = self._pending_zeroes, []
        for inode, file_block, lo, hi in pending:
            phys = inode.extents.lookup(file_block)
            if phys is None or lo >= hi:
                continue  # block punched/unlinked since; nothing kept
            self._patch_block(phys, lo, bytes(hi - lo))

    def _zero_block_tail(self, inode: Inode, new_size: int) -> None:
        """Zero ``[new_size, end-of-block)`` of the kept partial block, so
        a later extension past it reads zeros (POSIX).  A data write, not
        a journalled metadata change: immediate without a journal, owed
        until commit with one (see ``_pending_zeroes``)."""
        file_block = new_size // BLOCK_SIZE
        within = new_size % BLOCK_SIZE
        if self.journal is not None:
            self._pending_zeroes.append(
                (inode, file_block, within, BLOCK_SIZE))
            return
        phys = inode.extents.lookup(file_block)
        if phys is not None:
            self._patch_block(phys, within, bytes(BLOCK_SIZE - within))

    def _trim_pending_zeroes(self, inode: Inode, offset: int,
                             length: int) -> None:
        """A write into ``[offset, offset+length)`` supersedes any owed
        zeroing there: the newest data must win at commit time."""
        if not self._pending_zeroes:
            return
        kept: List[Tuple[Inode, int, int, int]] = []
        for entry in self._pending_zeroes:
            node, file_block, lo, hi = entry
            base = file_block * BLOCK_SIZE
            if node is not inode or base + hi <= offset or \
                    base + lo >= offset + length:
                kept.append(entry)
                continue
            if base + lo < offset:
                kept.append((node, file_block, lo, offset - base))
            if base + hi > offset + length:
                kept.append((node, file_block, offset + length - base, hi))
        self._pending_zeroes = kept

    def _free_blocks(self, start: int, count: int) -> None:
        """Free a physical run, honouring commit ordering.

        Without a journal: immediate release + TRIM (the old behaviour,
        byte-identical traces).  With one: the run is parked until the
        freeing txn commits, and the data stays on media — an uncommitted
        unlink/punch rolls back at recovery and must still find it.
        """
        if self.journal is None:
            self._allocator.release(start, count)
            self.media.discard(start * SECTORS_PER_BLOCK,
                               count * SECTORS_PER_BLOCK)
        else:
            self._pending_frees.append((start, count))

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    @staticmethod
    def _split(path: str) -> List[str]:
        if not path.startswith("/"):
            raise InvalidArgument(f"path must be absolute: {path!r}")
        return [part for part in path.split("/") if part]

    def _walk(self, parts: List[str]) -> Inode:
        node = self.root
        for part in parts:
            if not node.is_dir:
                raise NotADirectory("/".join(parts))
            if part not in node.entries:
                raise FileNotFound("/".join(parts))
            node = node.entries[part]
        return node

    def lookup(self, path: str) -> Inode:
        return self._walk(self._split(path))

    def exists(self, path: str) -> bool:
        try:
            self.lookup(path)
            return True
        except (FileNotFound, NotADirectory):
            return False

    def _parent_and_name(self, path: str) -> Tuple[Inode, str]:
        parts = self._split(path)
        if not parts:
            raise InvalidArgument("path refers to the root")
        parent = self._walk(parts[:-1])
        if not parent.is_dir:
            raise NotADirectory(path)
        return parent, parts[-1]

    def _new_inode(self, is_dir: bool) -> Inode:
        inode = Inode(self._next_ino, is_dir)
        self._next_ino += 1
        return inode

    def create(self, path: str) -> Inode:
        parent, name = self._parent_and_name(path)
        if name in parent.entries:
            raise FileExists(path)
        with self.txn():
            inode = self._new_inode(is_dir=False)
            parent.entries[name] = inode
            self._log({"op": "create", "path": path, "ino": inode.number})
        return inode

    def mkdir(self, path: str) -> Inode:
        parent, name = self._parent_and_name(path)
        if name in parent.entries:
            raise FileExists(path)
        with self.txn():
            inode = self._new_inode(is_dir=True)
            parent.entries[name] = inode
            self._log({"op": "mkdir", "path": path, "ino": inode.number})
        return inode

    def unlink(self, path: str) -> None:
        parent, name = self._parent_and_name(path)
        if name not in parent.entries:
            raise FileNotFound(path)
        inode = parent.entries[name]
        if inode.is_dir:
            raise IsADirectory(path)
        with self.txn():
            del parent.entries[name]
            self._free_all_extents(inode)
            self._log({"op": "unlink", "path": path})

    def rename(self, old_path: str, new_path: str) -> None:
        """Atomic namespace swap; replaces an existing plain file at the
        destination (the classic write-new-then-rename pattern)."""
        old_parent, old_name = self._parent_and_name(old_path)
        if old_name not in old_parent.entries:
            raise FileNotFound(old_path)
        inode = old_parent.entries[old_name]
        new_parent, new_name = self._parent_and_name(new_path)
        displaced = new_parent.entries.get(new_name)
        if displaced is not None and displaced.is_dir:
            raise IsADirectory(new_path)
        with self.txn():
            del old_parent.entries[old_name]
            new_parent.entries[new_name] = inode
            if displaced is not None:
                self._free_all_extents(displaced)
            self._log({"op": "rename", "old": old_path, "new": new_path})

    # ------------------------------------------------------------------
    # Extents and allocation
    # ------------------------------------------------------------------

    def _notify(self, inode: Inode, kind: str) -> None:
        if self.bus.enabled:
            self.bus.emit(obs_events.EXTENT_CHANGE, self.clock(),
                          ino=inode.number, kind=kind)
        for listener in self.extent_change_listeners:
            listener(inode, kind)

    def ensure_allocated(self, inode: Inode, offset: int, length: int) -> bool:
        """Allocate blocks so ``[offset, offset+length)`` is fully mapped.

        Returns True if any new extent was added (a "grow" change).
        """
        if inode.is_dir:
            raise IsADirectory(f"inode {inode.number}")
        if length <= 0:
            raise InvalidArgument("length must be positive")
        self._trim_pending_zeroes(inode, offset, length)
        first = offset // BLOCK_SIZE
        last = (offset + length - 1) // BLOCK_SIZE
        changed = False
        block = first
        with self.txn():
            logged: List[List[int]] = []
            while block <= last:
                if inode.extents.lookup(block) is not None:
                    block += 1
                    continue
                # Find the hole's end within our range to allocate in one
                # go.
                hole_end = block
                while hole_end <= last and \
                        inode.extents.lookup(hole_end) is None:
                    hole_end += 1
                need = hole_end - block
                pieces = self._allocator.allocate(
                    need, self.max_extent_blocks)
                file_block = block
                for start, count in pieces:
                    inode.extents.add(Extent(file_block, start, count))
                    logged.append([file_block, start, count])
                    file_block += count
                changed = True
                block = hole_end
            if changed and logged:
                # The physical placement is recorded, not re-derived, so
                # replay maps the file onto the data already on media.
                self._log({"op": "alloc", "ino": inode.number,
                           "extents": logged})
        if changed:
            self._notify(inode, "grow")
        return changed

    def punch_range(self, inode: Inode, offset: int, length: int) -> None:
        """Unmap and free ``[offset, offset+length)`` (block aligned)."""
        if offset % BLOCK_SIZE or length % BLOCK_SIZE:
            raise InvalidArgument("punch must be block aligned")
        with self.txn():
            punched = inode.extents.punch(offset // BLOCK_SIZE,
                                          length // BLOCK_SIZE)
            for extent in punched:
                self._free_blocks(extent.phys_block, extent.count)
            if punched:
                self._log({"op": "punch", "ino": inode.number,
                           "file_block": offset // BLOCK_SIZE,
                           "count": length // BLOCK_SIZE})
        if punched:
            self._notify(inode, "unmap")

    def truncate(self, inode: Inode, new_size: int) -> None:
        if new_size < 0:
            raise InvalidArgument("negative size")
        old_size = inode.size
        old_blocks = (old_size + BLOCK_SIZE - 1) // BLOCK_SIZE
        new_blocks = (new_size + BLOCK_SIZE - 1) // BLOCK_SIZE
        with self.txn():
            if new_blocks < old_blocks:
                self.punch_range(inode, new_blocks * BLOCK_SIZE,
                                 (old_blocks - new_blocks) * BLOCK_SIZE)
            self.set_size(inode, new_size)
        if 0 < new_size < old_size and new_size % BLOCK_SIZE:
            self._zero_block_tail(inode, new_size)

    def set_size(self, inode: Inode, new_size: int) -> None:
        """Update ``inode.size``, journalled.

        The kernel's timed write path calls this (instead of assigning
        ``inode.size`` directly) so the size change lands in the same
        transaction as the allocation it completes.
        """
        if new_size == inode.size:
            return
        with self.txn():
            inode.size = new_size
            self._log({"op": "size", "ino": inode.number,
                       "size": new_size})

    def _free_all_extents(self, inode: Inode) -> None:
        had_blocks = len(inode.extents) > 0
        for extent in inode.extents.extents():
            inode.extents.punch(extent.file_block, extent.count)
            self._free_blocks(extent.phys_block, extent.count)
        inode.size = 0
        if had_blocks:
            self._notify(inode, "unmap")

    def map_range(self, inode: Inode, offset: int, length: int,
                  span: int = 0, path: str = "normal",
                  resolve_ns: Optional[int] = None
                  ) -> List[Tuple[int, int]]:
        """Translate a byte range to ``(lba, sectors)`` segments.

        Requires sector alignment (O_DIRECT semantics).  More than one
        segment means the BIO layer must split.  ``span``/``path`` tag the
        emitted ``fs_resolve`` tracepoint; the CPU cost itself is charged
        by the caller, mirrored here as ``cpu_ns`` (``resolve_ns``
        overrides it for call sites that charge a different amount, e.g.
        the IRQ-context split fallback which charges no fs cost).
        """
        if offset % SECTOR_SIZE or length % SECTOR_SIZE or length <= 0:
            raise InvalidArgument(
                f"O_DIRECT range must be 512-aligned: ({offset}, {length})"
            )
        segments: List[Tuple[int, int]] = []
        position = offset
        end = offset + length
        while position < end:
            block = position // BLOCK_SIZE
            phys = inode.extents.lookup(block)
            if phys is None:
                raise InvalidArgument(f"read of unmapped block {block}")
            within = position % BLOCK_SIZE
            take = min(end - position, BLOCK_SIZE - within)
            lba = phys * SECTORS_PER_BLOCK + within // SECTOR_SIZE
            sectors = take // SECTOR_SIZE
            if segments and segments[-1][0] + segments[-1][1] == lba:
                segments[-1] = (segments[-1][0], segments[-1][1] + sectors)
            else:
                segments.append((lba, sectors))
            position += take
        if self.bus.enabled:
            self.bus.emit(obs_events.FS_RESOLVE, self.clock(),
                          ino=inode.number, offset=offset, length=length,
                          segments=len(segments),
                          cpu_ns=(self.resolve_cost_ns if resolve_ns is None
                                  else resolve_ns),
                          span=span, path=path)
        return segments

    # ------------------------------------------------------------------
    # Untimed media access (setup/verification paths)
    # ------------------------------------------------------------------

    def write_sync(self, inode: Inode, offset: int, data: bytes) -> None:
        """Allocate and write immediately, without simulated time.

        The sector-aligned middle goes to the device as one write per
        physically contiguous piece of the file, each a view of ``data``
        (the device keeps views of ``bytes`` without copying).  A block
        the write starts or ends inside mid-sector is read-modified-written.
        """
        if not data:
            return
        with self.txn():
            self.ensure_allocated(inode, offset, len(data))
            self.set_size(inode, max(inode.size, offset + len(data)))
        data = memoryview(data)
        lo, hi = offset, offset + len(data)
        if lo % SECTOR_SIZE:
            lo = min(hi, (lo // BLOCK_SIZE + 1) * BLOCK_SIZE)
            self._patch_block(inode.extents.lookup(offset // BLOCK_SIZE),
                              offset % BLOCK_SIZE, data[:lo - offset])
        tail = hi
        if hi % SECTOR_SIZE:
            tail = max(lo, (hi - 1) // BLOCK_SIZE * BLOCK_SIZE)
        if lo < tail:
            block = lo // BLOCK_SIZE
            blocks = -(-tail // BLOCK_SIZE) - block
            for phys, count in inode.extents.map_range(block, blocks):
                stop = min(tail, (block + count) * BLOCK_SIZE)
                self.media.write(
                    phys * SECTORS_PER_BLOCK
                    + (lo - block * BLOCK_SIZE) // SECTOR_SIZE,
                    data[lo - offset:stop - offset])
                block += count
                lo = stop
        if tail < hi:
            self._patch_block(inode.extents.lookup(tail // BLOCK_SIZE),
                              tail % BLOCK_SIZE, data[tail - offset:])

    def _patch_block(self, phys: int, within: int, piece) -> None:
        """Read-modify-write physical block ``phys``: ``piece`` at byte
        ``within`` of it."""
        lba = phys * SECTORS_PER_BLOCK
        buffer = bytearray(self.media.read(lba, SECTORS_PER_BLOCK))
        buffer[within:within + len(piece)] = piece
        self.media.write(lba, bytes(buffer))

    def read_sync(self, inode: Inode, offset: int, length: int) -> bytes:
        """Read immediately, without simulated time.

        A zero-length read returns ``b""`` (POSIX ``pread`` semantics);
        only a negative length is an error.
        """
        if length < 0:
            raise InvalidArgument("length must be >= 0")
        if length == 0:
            return b""
        out = bytearray()
        position = offset
        end = offset + length
        while position < end:
            block = position // BLOCK_SIZE
            within = position % BLOCK_SIZE
            take = min(end - position, BLOCK_SIZE - within)
            phys = inode.extents.lookup(block)
            if phys is None:
                out += bytes(take)
            else:
                chunk = bytearray(self.media.read(phys * SECTORS_PER_BLOCK,
                                                  SECTORS_PER_BLOCK))
                # Zeros owed by an uncommitted truncate are already
                # visible to readers, like dirtied-but-unflushed pages.
                for node, file_block, lo, hi in self._pending_zeroes:
                    if node is inode and file_block == block:
                        chunk[lo:hi] = bytes(hi - lo)
                out += chunk[within : within + take]
            position += take
        return bytes(out)
