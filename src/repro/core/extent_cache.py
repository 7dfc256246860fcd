"""The NVMe-layer soft-state extent cache (paper §4, Translation & Security).

When the install ioctl attaches a function to a file, the file's extents are
snapshotted into this cache.  Chained resubmissions translate file offsets
to LBAs against the snapshot **without any file-system call** — the whole
point of the design — and can only ever reach blocks belonging to that file
(the security property).

Every installation holds its own snapshot, so one file can have several
(two processes, or two descriptors, with the walker installed on it).  The
file system publishes extent-change events; an *unmap* (blocks removed or
moved) invalidates every live snapshot of the file, ongoing chains are
aborted with ``EEXTENT``, and the application must re-run the ioctl.  Pure
growth keeps cached translations valid, although offsets beyond the
snapshot miss and also require a refresh — the heavy-handed-but-simple
protocol of the paper.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.device.blockdev import SECTOR_SIZE
from repro.kernel.extfs import BLOCK_SIZE, ExtFs, Inode, SECTORS_PER_BLOCK
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS, TraceBus

__all__ = ["CacheEntry", "NvmeExtentCache", "Translation"]


@dataclass(frozen=True)
class Translation:
    """Outcome of translating (offset, length) against a snapshot."""

    MISS = "miss"          # not covered by the snapshot -> EEXTENT
    SPLIT = "split"        # crosses discontiguous extents -> BIO fallback
    OK = "ok"

    status: str
    lba: int = -1
    sectors: int = 0


class CacheEntry:
    """One file's snapshotted extents, valid while ``valid`` is True."""

    __slots__ = ("ino", "extents", "epoch", "valid", "bus", "clock",
                 "_starts")

    def __init__(self, ino: int, extents: List[Tuple[int, int, int]],
                 epoch: int, bus: TraceBus = NULL_BUS,
                 clock: Callable[[], int] = lambda: 0):
        self.ino = ino
        # (file_block, phys_block, count), sorted by file_block.
        self.extents = sorted(extents)
        self.epoch = epoch
        self.valid = True
        self.bus = bus
        self.clock = clock
        # Extent starts, for O(log n) block lookups on fragmented files.
        self._starts = [extent[0] for extent in self.extents]

    def lookup_block(self, file_block: int) -> Optional[int]:
        index = bisect.bisect_right(self._starts, file_block) - 1
        if index < 0:
            return None
        start, phys, count = self.extents[index]
        if file_block < start + count:
            return phys + (file_block - start)
        return None

    def translate(self, offset: int, length: int,
                  span: int = 0) -> Translation:
        """Map a byte range to one contiguous LBA run, else SPLIT/MISS."""
        result = self._translate(offset, length)
        if self.bus.enabled:
            etype = {
                Translation.OK: obs_events.EXTENT_CACHE_HIT,
                Translation.MISS: obs_events.EXTENT_CACHE_MISS,
                Translation.SPLIT: obs_events.EXTENT_CACHE_SPLIT,
            }[result.status]
            self.bus.emit(etype, self.clock(), ino=self.ino, offset=offset,
                          length=length, span=span, path="chain")
        return result

    def _translate(self, offset: int, length: int) -> Translation:
        if offset % SECTOR_SIZE or length % SECTOR_SIZE or length <= 0:
            return Translation(Translation.MISS)
        first_block = offset // BLOCK_SIZE
        last_block = (offset + length - 1) // BLOCK_SIZE
        first_phys = self.lookup_block(first_block)
        if first_phys is None:
            return Translation(Translation.MISS)
        expected = first_phys
        for block in range(first_block, last_block + 1):
            phys = self.lookup_block(block)
            if phys is None:
                return Translation(Translation.MISS)
            if phys != expected:
                return Translation(Translation.SPLIT)
            expected = phys + 1
        within = offset % BLOCK_SIZE
        lba = first_phys * SECTORS_PER_BLOCK + within // SECTOR_SIZE
        return Translation(Translation.OK, lba=lba,
                           sectors=length // SECTOR_SIZE)


class NvmeExtentCache:
    """All snapshots held at the (simulated) NVMe layer, keyed by inode.

    Each inode maps to its live snapshots in install order, one per
    installation; invalidation walks them in that order, so its events
    are deterministic.
    """

    def __init__(self, fs: ExtFs, bus: Optional[TraceBus] = None,
                 clock: Optional[Callable[[], int]] = None):
        self.fs = fs
        self.bus = bus if bus is not None else NULL_BUS
        self.clock = clock if clock is not None else (lambda: 0)
        self._entries: Dict[int, List[CacheEntry]] = {}
        self._epoch = 0
        self.invalidations = 0
        self.refreshes = 0
        fs.extent_change_listeners.append(self._on_extent_change)
        fs.recovery_listeners.append(self._on_recovery)

    def install(self, inode: Inode) -> CacheEntry:
        """Snapshot the inode's extents; called by the install and refresh
        ioctls, which then :meth:`drop` the snapshot this one replaces."""
        self._epoch += 1
        snapshot = [
            (extent.file_block, extent.phys_block, extent.count)
            for extent in inode.extents
        ]
        entry = CacheEntry(inode.number, snapshot, self._epoch,
                           bus=self.bus, clock=self.clock)
        self._entries.setdefault(inode.number, []).append(entry)
        self.refreshes += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.EXTENT_CACHE_INSTALL, self.clock(),
                          ino=inode.number, extents=len(snapshot),
                          epoch=self._epoch)
        return entry

    def entry(self, inode: Inode) -> Optional[CacheEntry]:
        """The inode's newest snapshot, if any."""
        entries = self._entries.get(inode.number)
        return entries[-1] if entries else None

    def _on_extent_change(self, inode: Inode, kind: str) -> None:
        """The new file-system hook of §4: an unmap invalidates every
        snapshot of the file, not only the newest."""
        if kind != "unmap":
            return
        for entry in self._entries.get(inode.number, ()):
            self.force_invalidate(entry, reason="unmap")

    def _on_recovery(self) -> None:
        """Crash recovery replaced the file system: every snapshot is
        derived from dead in-memory state and must go.  Chains in flight
        afterwards miss (EEXTENT) and re-run the install protocol."""
        for entries in self._entries.values():
            for entry in entries:
                self.force_invalidate(entry, reason="power_loss")
        self._entries.clear()

    def force_invalidate(self, entry: CacheEntry,
                         reason: str = "forced") -> None:
        """Invalidate one snapshot (unmap hook, or fault-plan staleness)."""
        if not entry.valid:
            return
        entry.valid = False
        self.invalidations += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.EXTENT_CACHE_INVALIDATE,
                          self.clock(), ino=entry.ino, epoch=entry.epoch,
                          reason=reason)

    def drop(self, entry: Optional[CacheEntry]) -> None:
        """Forget one installation's snapshot (uninstall, or replaced by
        a refresh); the file's other snapshots stay."""
        entries = self._entries.get(entry.ino) if entry is not None else None
        if entries and entry in entries:
            entries.remove(entry)
            if not entries:
                del self._entries[entry.ino]
