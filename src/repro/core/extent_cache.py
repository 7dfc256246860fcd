"""The NVMe-layer soft-state extent cache (paper §4, Translation & Security).

When the install ioctl attaches a function to a file, the file's extent
tree is snapshotted into this cache: a :meth:`ExtentTree.snapshot` copy,
translated by the file system's own :meth:`ExtentTree.map_range`.
Chained resubmissions translate file offsets to LBAs against the snapshot
**without any file-system call** — the whole point of the design — and can
only ever reach blocks belonging to that file (the security property).  A
range that touches a hole misses (``EEXTENT``) even when it also crosses
discontiguous extents: the hole is found before a split is reported, so
the split fallback only ever reads mapped blocks.

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

from typing import Callable, Dict, List, Optional, Tuple

from repro.kernel.extent import ExtentTree
from repro.kernel.extfs import ExtFs, Inode
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS, TraceBus

__all__ = ["CacheEntry", "NvmeExtentCache"]


class CacheEntry:
    """One installation's copy of a file's extent tree, valid while
    ``valid`` is True."""

    __slots__ = ("ino", "extents", "epoch", "valid", "bus", "clock")

    def __init__(self, ino: int, extents: ExtentTree, epoch: int,
                 bus: TraceBus = NULL_BUS,
                 clock: Callable[[], int] = lambda: 0):
        self.ino = ino
        self.extents = extents
        self.epoch = epoch
        self.valid = True
        self.bus = bus
        self.clock = clock

    def translate(self, offset: int, length: int,
                  span: int = 0) -> Optional[List[Tuple[int, int]]]:
        """The ``(lba, sectors)`` runs of a byte range in the snapshot.

        None is a miss (unaligned, a hole, or past the snapshot: the
        chain ends ``EEXTENT``); more than one run is a split (the BIO
        fallback).
        """
        runs = self.extents.map_range(offset, length)
        if self.bus.enabled:
            if runs is None:
                etype = obs_events.EXTENT_CACHE_MISS
            elif len(runs) > 1:
                etype = obs_events.EXTENT_CACHE_SPLIT
            else:
                etype = obs_events.EXTENT_CACHE_HIT
            self.bus.emit(etype, self.clock(), ino=self.ino, offset=offset,
                          length=length, span=span, path="chain")
        return runs


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
        snapshot = inode.extents.snapshot()
        entry = CacheEntry(inode.number, snapshot, self._epoch,
                           bus=self.bus, clock=self.clock)
        self._entries.setdefault(inode.number, []).append(entry)
        self.refreshes += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.EXTENT_CACHE_INSTALL, self.clock(),
                          ino=inode.number, extents=len(snapshot),
                          epoch=self._epoch)
        return entry

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
        """Invalidate one snapshot (unmap hook, or power loss)."""
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
