"""The device's volatile write cache (the crash-consistency adversary).

Real NVMe drives acknowledge writes once the data reaches on-controller
DRAM; the data only becomes durable when the controller destages it —
either on its own (here: FIFO eviction when the cache is full), on an
explicit FLUSH, or for writes marked FUA (force unit access), which bypass
the cache entirely.  A power loss drops everything still volatile, and may
leave one in-flight multi-sector write *torn* at a sector boundary.

The cache deliberately does **not** coalesce: records destage to media in
exact submission order, so the set of persisted writes after a crash is
always a prefix of the acknowledged writes — the property the crash-point
harness checks against its shadow states.  Reads are served through the
cache (media overlaid with pending records, applied in order), so cached
data is visible before it is durable, just like a real drive.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.device.blockdev import SECTOR_SIZE, BlockDevice
from repro.errors import InvalidArgument

__all__ = ["CachedWrite", "WriteCache"]


class CachedWrite:
    """One acknowledged-but-volatile write."""

    __slots__ = ("lba", "sectors", "data")

    def __init__(self, lba: int, data: bytes):
        self.lba = lba
        self.sectors = len(data) // SECTOR_SIZE
        self.data = data

    def __repr__(self) -> str:
        return f"CachedWrite(lba={self.lba}, sectors={self.sectors})"


class WriteCache:
    """FIFO volatile write cache of at most ``depth`` write records."""

    def __init__(self, media: BlockDevice, depth: int):
        if depth < 1:
            raise InvalidArgument("write cache depth must be >= 1")
        self.media = media
        self.depth = depth
        self._records: List[CachedWrite] = []
        self.evictions = 0
        self.flushed_records = 0

    def write(self, lba: int, data: bytes) -> None:
        """Acknowledge a write into the cache, destaging FIFO on overflow."""
        self._records.append(CachedWrite(lba, data))
        while len(self._records) > self.depth:
            oldest = self._records.pop(0)
            self.media.write(oldest.lba, oldest.data)
            self.evictions += 1

    def read(self, lba: int, count: int) -> bytes:
        """Media contents overlaid with pending records, in write order."""
        buffer = bytearray(self.media.read(lba, count))
        start = lba * SECTOR_SIZE
        end = (lba + count) * SECTOR_SIZE
        for record in self._records:
            rec_start = record.lba * SECTOR_SIZE
            rec_end = rec_start + len(record.data)
            lo = max(start, rec_start)
            hi = min(end, rec_end)
            if lo < hi:
                buffer[lo - start : hi - start] = \
                    record.data[lo - rec_start : hi - rec_start]
        return bytes(buffer)

    def flush(self) -> int:
        """Destage every pending record to media, in order."""
        flushed = len(self._records)
        for record in self._records:
            self.media.write(record.lba, record.data)
        self._records.clear()
        self.flushed_records += flushed
        return flushed

    def power_loss(self, rng: Optional[random.Random] = None,
                   tear: bool = False) -> Dict[str, int]:
        """Drop all volatile records; optionally tear the oldest one.

        Everything older than the cache contents already reached media
        (FIFO destage), so the oldest pending record is exactly "the next
        write after the durable prefix".  With ``tear=True`` and a
        multi-sector record at the head, a seed-chosen sector-aligned
        prefix of it is persisted — modelling a write caught mid-transfer
        by the power cut.  Single sectors never tear (sector writes are
        atomic), which is what makes the single-sector superblock safe.
        """
        info = {"dropped": len(self._records), "torn_sectors": 0,
                "torn_lba": -1}
        if tear and rng is not None and self._records:
            head = self._records[0]
            if head.sectors > 1:
                cut = rng.randrange(1, head.sectors)
                self.media.write(head.lba,
                                 head.data[: cut * SECTOR_SIZE])
                info["torn_sectors"] = cut
                info["torn_lba"] = head.lba
        self._records.clear()
        return info
