"""Sector-addressed sparse in-memory block store.

This is the "media" behind the NVMe device model: a flat array of 512-byte
sectors.  Like the paper's §4 NVMe layer, which keeps a small snapshot of
large, stable extents rather than a per-block map, the store keeps what
was written as *runs*: a half-open sector range ``[start, end)`` backed
by one immutable buffer, ``bytes`` or a zero-copy ``memoryview`` of
``bytes``.  A write is one run whatever its length, so a B-tree image
written from a cache shares the cache's bytes; an overwrite or a discard
cuts the runs it overlaps into views (a leftover of at most one 4 KiB
block is copied instead, so the small leftovers of a fragmented run do
not keep its whole buffer alive).  Never-written sectors read as zeros,
so a multi-gigabyte device costs memory only for what was written.  It
has no timing — service latency lives in :mod:`repro.device.nvme`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Callable, Dict, List, Union

from repro.errors import InvalidArgument, IoError
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS

__all__ = ["BlockDevice", "SECTOR_SIZE"]

SECTOR_SIZE = 512

#: A run's contents: immutable, ``len`` in bytes.
Buffer = Union[bytes, memoryview]

#: A piece a cut leaves behind is copied, not viewed, up to this size: a
#: view costs about as much as a copy of one sector, and pins its buffer.
_COPY_AT_MOST = 4096


def _frozen(data) -> Buffer:
    """Non-``bytes`` ``data`` as a buffer no caller can change: a flat
    byte view of ``bytes`` as a fresh view (the caller may release
    theirs), anything else copied once."""
    if (type(data) is memoryview and type(data.obj) is bytes
            and data.ndim == 1 and data.itemsize == 1 and data.contiguous):
        return data[:]
    return bytes(data)


def _piece(buffer: Buffer, lo: int, hi: int) -> Buffer:
    """Bytes ``[lo, hi)`` of ``buffer``, left behind by a cut."""
    if hi - lo <= _COPY_AT_MOST:
        return bytes(buffer[lo:hi])
    return memoryview(buffer)[lo:hi]


class BlockDevice:
    """A sparse array of ``capacity_sectors`` sectors of 512 bytes."""

    def __init__(self, capacity_sectors: int):
        if capacity_sectors < 1:
            raise InvalidArgument("device needs at least one sector")
        self.capacity_sectors = capacity_sectors
        #: The run map: sorted run starts, and per start the run's buffer;
        #: a run ends at ``start + len(buffer) // SECTOR_SIZE``.  Runs never
        #: overlap; adjacent runs are not merged (that would copy).
        self._starts: List[int] = []
        self._runs: Dict[int, Buffer] = {}
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
        end = lba + count
        starts, runs = self._starts, self._runs
        index = bisect_right(starts, lba) - 1
        pieces = []
        position = lba  # the first sector not yet in pieces
        if index >= 0:
            start = starts[index]
            buffer = runs[start]
            run_end = start + len(buffer) // SECTOR_SIZE
            if end <= run_end:  # inside one run: one slice
                return bytes(buffer[(lba - start) * SECTOR_SIZE:
                                    (end - start) * SECTOR_SIZE])
            if run_end > lba:
                pieces.append(buffer[(lba - start) * SECTOR_SIZE:])
                position = run_end
        index += 1
        for start in starts[index:bisect_left(starts, end, index)]:
            if start > position:  # a never-written gap
                pieces.append(bytes((start - position) * SECTOR_SIZE))
            buffer = runs[start]
            position = start + len(buffer) // SECTOR_SIZE
            if position > end:
                pieces.append(buffer[:(end - start) * SECTOR_SIZE])
                position = end
            else:
                pieces.append(buffer)
        if position < end:
            pieces.append(bytes((end - position) * SECTOR_SIZE))
        return b"".join(pieces)

    def write(self, lba: int, data: bytes) -> None:
        """Write whole sectors starting at ``lba``.

        The device keeps ``data`` itself when it is immutable (``bytes``
        or a view of ``bytes``) and a copy otherwise.
        """
        if type(data) is not bytes:
            data = _frozen(data)
        if len(data) % SECTOR_SIZE != 0:
            raise InvalidArgument(
                f"write length {len(data)} is not sector-aligned"
            )
        count = len(data) // SECTOR_SIZE
        self._check_range(lba, count)
        self.writes += count
        run = self._runs.get(lba)
        if run is None or len(run) != len(data):  # not an exact overwrite
            self._cut(lba, lba + count)
            insort(self._starts, lba)
        self._runs[lba] = data

    def discard(self, lba: int, count: int) -> None:
        """TRIM: drop sectors back to zeroes (frees memory)."""
        self._check_range(lba, count)
        self.discards += count
        self._cut(lba, lba + count)
        if self.bus.enabled:
            self.bus.emit(obs_events.BLOCKDEV_DISCARD, self.clock(),
                          lba=lba, sectors=count)

    def _cut(self, lba: int, end: int) -> None:
        """Remove ``[lba, end)`` from the run map, keeping what runs that
        overlap it hold outside it (see :func:`_piece`)."""
        starts, runs = self._starts, self._runs
        index = bisect_left(starts, lba)
        if index > 0:
            start = starts[index - 1]
            buffer = runs[start]
            size = len(buffer)
            if start + size // SECTOR_SIZE > lba:  # straddles lba
                runs[start] = _piece(buffer, 0, (lba - start) * SECTOR_SIZE)
                cut = (end - start) * SECTOR_SIZE
                if cut < size:  # and reaches past end: keep its tail too
                    runs[end] = _piece(buffer, cut, size)
                    starts.insert(index, end)
                    return
        stop = bisect_left(starts, end, index)
        if stop == index:
            return
        last = starts[stop - 1]
        buffer = runs[last]
        for start in starts[index:stop]:
            del runs[start]
        del starts[index:stop]
        cut = (end - last) * SECTOR_SIZE
        if cut < len(buffer):  # the last run starting inside reaches past
            runs[end] = _piece(buffer, cut, len(buffer))
            starts.insert(index, end)
