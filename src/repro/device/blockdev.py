"""Sector-addressed sparse in-memory block store.

This is the "media" behind the NVMe device model: a flat array of 512-byte
sectors, stored sparsely so multi-gigabyte devices cost memory only for the
sectors actually written.  It has no timing — service latency lives in
:mod:`repro.device.nvme`.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.errors import InvalidArgument, IoError
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS

__all__ = ["BlockDevice", "SECTOR_SIZE"]

SECTOR_SIZE = 512

#: What a never-written sector reads as.
_ZERO_SECTOR = bytes(SECTOR_SIZE)


class BlockDevice:
    """A sparse array of ``capacity_sectors`` sectors of 512 bytes."""

    def __init__(self, capacity_sectors: int):
        if capacity_sectors < 1:
            raise InvalidArgument("device needs at least one sector")
        self.capacity_sectors = capacity_sectors
        self._sectors: Dict[int, bytes] = {}
        self.reads = 0
        self.writes = 0
        self.discards = 0
        #: Observability: the owning kernel points these at its bus/clock.
        #: Only ``discard`` emits (TRIM is rare and never on the read path,
        #: so read-path traces stay byte-identical); read/write sector
        #: counts are derived from ``nvme_complete`` events instead.
        self.bus = NULL_BUS
        self.clock: Callable[[], int] = lambda: 0

    def _check_range(self, lba: int, count: int) -> None:
        if count < 1:
            raise InvalidArgument(f"sector count must be positive, got {count}")
        if lba < 0 or lba + count > self.capacity_sectors:
            raise IoError(
                f"access [{lba}, {lba + count}) beyond device end "
                f"({self.capacity_sectors} sectors)"
            )

    def read(self, lba: int, count: int) -> bytes:
        """Read ``count`` sectors starting at ``lba``; unwritten reads zeros."""
        self._check_range(lba, count)
        self.reads += count
        get = self._sectors.get
        return b"".join(
            [get(sector, _ZERO_SECTOR) for sector in range(lba, lba + count)]
        )

    def write(self, lba: int, data: bytes) -> None:
        """Write whole sectors starting at ``lba``."""
        if len(data) % SECTOR_SIZE != 0:
            raise InvalidArgument(
                f"write length {len(data)} is not sector-aligned"
            )
        count = len(data) // SECTOR_SIZE
        self._check_range(lba, count)
        self.writes += count
        for index in range(count):
            chunk = bytes(data[index * SECTOR_SIZE : (index + 1) * SECTOR_SIZE])
            self._sectors[lba + index] = chunk

    def discard(self, lba: int, count: int) -> None:
        """TRIM: drop sectors back to zeroes (frees memory)."""
        self._check_range(lba, count)
        self.discards += count
        for sector in range(lba, lba + count):
            self._sectors.pop(sector, None)
        if self.bus.enabled:
            self.bus.emit(obs_events.BLOCKDEV_DISCARD, self.clock(),
                          lba=lba, sectors=count)

    def image(self) -> Dict[int, bytes]:
        """A snapshot of every written sector (for determinism tests)."""
        return dict(self._sectors)

    def written_sectors(self) -> int:
        """Number of sectors currently holding data (for tests)."""
        return len(self._sectors)
