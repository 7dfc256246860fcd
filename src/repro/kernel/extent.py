"""Extent trees: the file-block → physical-block mapping.

An extent maps a contiguous run of logical file blocks to a contiguous run
of physical blocks, exactly like ext4 extents.  The tree keeps extents
sorted and merged; every mutation bumps a version counter and reports
whether any previously mapped block was *unmapped or moved* — the event
class the paper's §4 invalidation protocol cares about (growing a file
without moving blocks does not invalidate the NVMe-layer cache, because the
cached translations remain valid).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import InvalidArgument

__all__ = ["Extent", "ExtentTree"]


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
    """A sorted, merged collection of non-overlapping extents."""

    def __init__(self):
        self._extents: List[Extent] = []
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

    def _find(self, file_block: int) -> Optional[int]:
        """Index of the extent covering ``file_block``, or None."""
        index = bisect.bisect_right(
            [extent.file_block for extent in self._extents], file_block
        ) - 1
        if index >= 0 and self._extents[index].covers(file_block):
            return index
        return None

    def lookup(self, file_block: int) -> Optional[int]:
        """Physical block for ``file_block``, or None if unmapped (a hole)."""
        index = self._find(file_block)
        if index is None:
            return None
        return self._extents[index].translate(file_block)

    def add(self, extent: Extent) -> None:
        """Map new blocks; the range must currently be unmapped."""
        for block in (extent.file_block, extent.file_end - 1):
            if self._find(block) is not None:
                raise InvalidArgument(
                    f"extent overlaps existing mapping at block {block}"
                )
        for existing in self._extents:
            if (existing.file_block < extent.file_end and
                    extent.file_block < existing.file_end):
                raise InvalidArgument("extent overlaps existing mapping")
        index = bisect.bisect_right(
            [existing.file_block for existing in self._extents],
            extent.file_block,
        )
        self._extents.insert(index, extent)
        self._merge_around(extent.file_block)
        self.version += 1

    def _merge_around(self, file_block: int) -> None:
        """Coalesce physically contiguous neighbours."""
        merged: List[Extent] = []
        for extent in self._extents:
            if merged:
                last = merged[-1]
                if (last.file_end == extent.file_block and
                        last.phys_block + last.count == extent.phys_block):
                    merged[-1] = Extent(last.file_block, last.phys_block,
                                        last.count + extent.count)
                    continue
            merged.append(extent)
        self._extents = merged

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
            self._extents = sorted(remaining, key=lambda e: e.file_block)
            self.version += 1
            self.unmap_events += 1
        return punched

    def map_range(self, file_block: int, count: int
                  ) -> List[Tuple[int, int]]:
        """Translate a block range into ``(phys_block, count)`` segments.

        Raises if any block in the range is a hole.  Adjacent physical
        segments are coalesced, so the result length is the number of
        discontiguous pieces — the BIO layer splits when it exceeds 1.
        """
        if count < 1:
            raise InvalidArgument("map_range count must be >= 1")
        segments: List[Tuple[int, int]] = []
        block = file_block
        end = file_block + count
        while block < end:
            index = self._find(block)
            if index is None:
                raise InvalidArgument(f"file block {block} is unmapped")
            extent = self._extents[index]
            take = min(end, extent.file_end) - block
            phys = extent.translate(block)
            if segments and segments[-1][0] + segments[-1][1] == phys:
                segments[-1] = (segments[-1][0], segments[-1][1] + take)
            else:
                segments.append((phys, take))
            block += take
        return segments
