"""Extent trees: the file-block → physical-block mapping.

An extent maps a contiguous run of logical file blocks to a contiguous run
of physical blocks, exactly like ext4 extents.  The tree keeps extents
sorted and merged; every mutation bumps a version counter and reports
whether any previously mapped block was *unmapped or moved* — the event
class the paper's §4 invalidation protocol cares about (growing a file
without moving blocks does not invalidate the NVMe-layer cache, because the
cached translations remain valid).

:meth:`ExtentTree.map_range` is the one translation of a byte range to
device sectors: the file system's BIO path and the NVMe-layer snapshot
(:mod:`repro.core.extent_cache`, a :meth:`ExtentTree.snapshot`) both call
it.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.device.blockdev import SECTOR_SIZE
from repro.errors import InvalidArgument

__all__ = ["BLOCK_SIZE", "Extent", "ExtentTree", "SECTORS_PER_BLOCK"]

BLOCK_SIZE = 4096
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE


@dataclass(frozen=True)
class Extent:
    """``count`` file blocks starting at ``file_block`` live at ``phys_block``."""

    file_block: int
    phys_block: int
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise InvalidArgument("extent count must be >= 1")
        if self.file_block < 0 or self.phys_block < 0:
            raise InvalidArgument("extent blocks must be non-negative")

    @property
    def file_end(self) -> int:
        return self.file_block + self.count

    def covers(self, file_block: int) -> bool:
        return self.file_block <= file_block < self.file_end

    def translate(self, file_block: int) -> int:
        if not self.covers(file_block):
            raise InvalidArgument(
                f"block {file_block} outside extent [{self.file_block}, "
                f"{self.file_end})"
            )
        return self.phys_block + (file_block - self.file_block)


class ExtentTree:
    """A sorted, merged collection of non-overlapping extents.

    ``_starts`` holds each extent's first file block, kept in step with
    ``_extents`` by every mutation, so a lookup is one bisect.  No two
    extents are both logically and physically adjacent: :meth:`add`
    merges them.
    """

    def __init__(self):
        self._extents: List[Extent] = []
        self._starts: List[int] = []
        #: Bumped on every mapping mutation.
        self.version = 0
        #: Count of mutations that unmapped or moved an existing block.
        self.unmap_events = 0

    def __len__(self) -> int:
        return len(self._extents)

    def __iter__(self) -> Iterator[Extent]:
        return iter(self._extents)

    def extents(self) -> List[Extent]:
        return list(self._extents)

    def snapshot(self) -> "ExtentTree":
        """A copy that later mutations of this tree leave alone."""
        copy = ExtentTree()
        copy._extents = list(self._extents)
        copy._starts = list(self._starts)
        return copy

    def lookup(self, file_block: int) -> Optional[int]:
        """Physical block for ``file_block``, or None if unmapped (a hole)."""
        index = bisect.bisect_right(self._starts, file_block) - 1
        if index >= 0:
            extent = self._extents[index]
            if file_block < extent.file_end:
                return extent.phys_block + (file_block - extent.file_block)
        return None

    def add(self, extent: Extent) -> None:
        """Map new blocks; the range must currently be unmapped.  A
        neighbour that continues the new extent physically merges with it."""
        extents = self._extents
        index = bisect.bisect_right(self._starts, extent.file_block)
        lo = hi = index
        if index:
            before = extents[index - 1]
            if before.file_end > extent.file_block:
                raise InvalidArgument("extent overlaps existing mapping")
            if _continues(before, extent):
                lo -= 1
                extent = Extent(before.file_block, before.phys_block,
                                before.count + extent.count)
        if index < len(extents):
            after = extents[index]
            if after.file_block < extent.file_end:
                raise InvalidArgument("extent overlaps existing mapping")
            if _continues(extent, after):
                hi += 1
                extent = Extent(extent.file_block, extent.phys_block,
                                extent.count + after.count)
        extents[lo:hi] = [extent]
        self._starts[lo:hi] = [extent.file_block]
        self.version += 1

    def punch(self, file_block: int, count: int) -> List[Extent]:
        """Unmap ``count`` blocks from ``file_block``; returns freed pieces.

        This is the §4 invalidation trigger: any successful punch is an
        unmap event.
        """
        if count < 1:
            raise InvalidArgument("punch count must be >= 1")
        punched: List[Extent] = []
        remaining: List[Extent] = []
        lo, hi = file_block, file_block + count
        for extent in self._extents:
            if extent.file_end <= lo or extent.file_block >= hi:
                remaining.append(extent)
                continue
            cut_lo = max(extent.file_block, lo)
            cut_hi = min(extent.file_end, hi)
            punched.append(
                Extent(cut_lo, extent.translate(cut_lo), cut_hi - cut_lo)
            )
            if extent.file_block < cut_lo:
                remaining.append(
                    Extent(extent.file_block, extent.phys_block,
                           cut_lo - extent.file_block)
                )
            if cut_hi < extent.file_end:
                remaining.append(
                    Extent(cut_hi, extent.translate(cut_hi),
                           extent.file_end - cut_hi)
                )
        if punched:
            self._extents = remaining  # built in file order
            self._starts = [extent.file_block for extent in remaining]
            self.version += 1
            self.unmap_events += 1
        return punched

    def map_range(self, offset: int, length: int
                  ) -> Optional[List[Tuple[int, int]]]:
        """Translate a byte range into ``(lba, sectors)`` runs.

        None if the range is not sector aligned or touches a hole.  A
        discontiguity does not end the walk, so a hole anywhere in the
        range is found: the hole is judged before contiguity.  Otherwise
        there is one run per extent the range touches (merged neighbours
        are never physically contiguous): more than one means the range
        crosses discontiguous extents, and the BIO layer must split.
        """
        if offset % SECTOR_SIZE or length % SECTOR_SIZE or length <= 0:
            return None
        extents = self._extents
        index = bisect.bisect_right(self._starts, offset // BLOCK_SIZE) - 1
        if index < 0:
            return None
        end = offset + length
        runs: List[Tuple[int, int]] = []
        position = offset
        while True:
            extent = extents[index]
            stop = min(end, extent.file_end * BLOCK_SIZE)
            if stop <= position:
                return None  # a hole at ``position``
            runs.append(
                ((extent.phys_block - extent.file_block) * SECTORS_PER_BLOCK
                 + position // SECTOR_SIZE,
                 (stop - position) // SECTOR_SIZE))
            if stop == end:
                return runs
            index += 1
            if index == len(extents) or \
                    extents[index].file_block * BLOCK_SIZE != stop:
                return None  # a hole at ``stop``
            position = stop


def _continues(left: Extent, right: Extent) -> bool:
    """True when ``right`` follows ``left`` both in the file and on disk."""
    return (left.file_end == right.file_block and
            left.phys_block + left.count == right.phys_block)
