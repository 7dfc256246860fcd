"""Write-ahead metadata journal + on-media checkpoint for ExtFs.

Before this module, ExtFs metadata (namespace, inodes, extent trees) lived
only in Python objects: a crash lost everything.  The journal gives the
simulated file system the same durability contract ext4's jbd2 gives the
real one, in ordered mode:

* every metadata mutation appends logical **records** to an open
  transaction (create/mkdir/unlink/rename/alloc/punch/size);
* ``fsync`` makes transactions durable: FLUSH the device's volatile write
  cache first (so committed metadata never references non-durable data),
  then append each pending txn to the on-media journal region as one
  checksummed, FUA-written **frame**;
* recovery (:mod:`repro.kernel.recovery`) loads the last checkpoint and
  replays committed frames in sequence order, discarding anything torn or
  uncommitted.

On-media layout (all inside the region the allocator reserves)::

    block 0, sector 0   superblock — one sector, so it can never tear
    blocks [1, 1+J)     journal region: sequential txn frames
    blocks [1+J, +C)    checkpoint slot A
    blocks [1+J+C, +C)  checkpoint slot B
    blocks >= 1+J+2C    file data

A txn frame is sector-padded: a 20-byte header (magic ``JTXN``, seq u64,
payload length u32, payload CRC u32), the JSON-encoded records, zero
padding, and an 8-byte commit marker (magic ``JCMT`` + CRC over
seq/payload-CRC) occupying the frame's final bytes.  A frame torn at any
sector boundary loses its commit marker, so replay discards the txn —
write-ahead atomicity from sector-write atomicity.

Checkpoints serialise the whole metadata state into the inactive slot,
flip ``active_slot`` in the superblock (written last), truncate the
journal, and TRIM the freed frames — the TRIM is what makes checkpoints
observable through :class:`~repro.device.blockdev.BlockDevice` discard
counters.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.device.blockdev import SECTOR_SIZE, BlockDevice
from repro.errors import InvalidArgument, JournalCorrupt, NoSpace
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS

__all__ = ["Journal", "JournalConfig", "serialize_fs"]

SECTORS_PER_BLOCK = 4096 // SECTOR_SIZE

TXN_MAGIC = b"JTXN"
COMMIT_MAGIC = b"JCMT"
SUPER_MAGIC = b"XSB1"
TXN_HEADER_LEN = 20   # magic + seq u64 + payload_len u32 + payload_crc u32
COMMIT_LEN = 8        # magic + crc u32


@dataclass(frozen=True)
class JournalConfig:
    """Sizing and commit-policy knobs for the metadata journal."""

    #: File-system blocks reserved for the txn log.
    journal_blocks: int = 64
    #: Blocks per checkpoint slot (two slots are reserved).
    checkpoint_blocks: int = 64
    #: Checkpoint after this many committed txns (0 = only when the log
    #: fills or on an explicit ``ExtFs.checkpoint_sync``).
    checkpoint_every_txns: int = 0
    #: Commit pending txns at the end of every mutating syscall instead of
    #: batching until fsync.  Meant for write-through devices (cache depth
    #: 0), where it makes every completed operation fully durable — the
    #: "a crash loses nothing" configuration.
    sync_commit: bool = False

    def __post_init__(self) -> None:
        if self.journal_blocks < 1 or self.checkpoint_blocks < 1:
            raise InvalidArgument("journal/checkpoint need >= 1 block each")
        if self.checkpoint_every_txns < 0:
            raise InvalidArgument("checkpoint_every_txns must be >= 0")


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _encode_json(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def serialize_fs(fs) -> Dict[str, Any]:
    """Serialise an ExtFs's metadata (namespace + inodes + extents).

    Duck-typed so this module needs no import of :mod:`repro.kernel.extfs`.
    """
    inodes: List[Dict[str, Any]] = []
    tree: List[List[Any]] = []
    stack = [fs.root]
    while stack:
        inode = stack.pop()
        inodes.append({
            "ino": inode.number,
            "dir": 1 if inode.is_dir else 0,
            "size": inode.size,
            "extents": [[e.file_block, e.phys_block, e.count]
                        for e in inode.extents],
        })
        if inode.is_dir:
            for name in sorted(inode.entries):
                child = inode.entries[name]
                tree.append([inode.number, name, child.number])
                stack.append(child)
    inodes.sort(key=lambda row: row["ino"])
    return {"version": 1, "next_ino": fs._next_ino, "inodes": inodes,
            "tree": tree}


class Journal:
    """The txn log bound to one media device, plus checkpoint plumbing."""

    def __init__(self, media: BlockDevice, config: JournalConfig):
        self.media = media
        self.config = config
        self.journal_start = SECTORS_PER_BLOCK  # sector after superblock
        self.journal_sectors = config.journal_blocks * SECTORS_PER_BLOCK
        self.ckpt_sectors = config.checkpoint_blocks * SECTORS_PER_BLOCK
        self.slot_start = (
            self.journal_start + self.journal_sectors,
            self.journal_start + self.journal_sectors + self.ckpt_sectors,
        )
        #: Blocks the allocator must keep away from file data.
        self.reserved_blocks = (1 + config.journal_blocks +
                                2 * config.checkpoint_blocks)
        if self.reserved_blocks * SECTORS_PER_BLOCK >= media.capacity_sectors:
            raise InvalidArgument("device too small for the journal layout")
        # -- volatile state -------------------------------------------------
        self.next_seq = 1
        self.head_sector = 0          # next free sector within the region
        self.active_slot = 0
        self.ckpt_seq = 0
        self._pending: List[Tuple[int, List[Dict[str, Any]]]] = []
        self._txn_depth = 0
        self._txn_records: List[Dict[str, Any]] = []
        self._txns_since_checkpoint = 0
        # -- counters / observability --------------------------------------
        self.txns_committed = 0
        self.checkpoints = 0
        self.bytes_written = 0
        self.bus = NULL_BUS
        self.clock: Callable[[], int] = lambda: 0
        #: Called (no arguments) after pending txns become durable — by
        #: commit or by checkpoint absorption.  ExtFs hooks this to
        #: release punched blocks back to the allocator: freed blocks must
        #: never be reused before the txn that freed them is durable, or a
        #: rolled-back truncate would recover pointing at reused blocks.
        self.commit_listeners: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Transaction accumulation (called by ExtFs mutations)
    # ------------------------------------------------------------------

    @property
    def pending_txns(self) -> int:
        return len(self._pending)

    def begin(self) -> None:
        self._txn_depth += 1

    def log(self, record: Dict[str, Any]) -> None:
        if self._txn_depth == 0:
            raise InvalidArgument("journal record outside a transaction")
        self._txn_records.append(record)

    def end(self) -> None:
        if self._txn_depth == 0:
            raise InvalidArgument("journal txn end without begin")
        self._txn_depth -= 1
        if self._txn_depth == 0 and self._txn_records:
            self._pending.append((self.next_seq, self._txn_records))
            self.next_seq += 1
            self._txn_records = []

    # ------------------------------------------------------------------
    # Commit: pending txns -> on-media frames
    # ------------------------------------------------------------------

    @staticmethod
    def _frame_sectors(payload_len: int) -> int:
        raw = TXN_HEADER_LEN + payload_len + COMMIT_LEN
        return (raw + SECTOR_SIZE - 1) // SECTOR_SIZE

    def encode_txn(self, seq: int, records: List[Dict[str, Any]]) -> bytes:
        payload = _encode_json(records)
        payload_crc = _crc(payload)
        sectors = self._frame_sectors(len(payload))
        frame = bytearray(sectors * SECTOR_SIZE)
        frame[0:4] = TXN_MAGIC
        frame[4:12] = seq.to_bytes(8, "little")
        frame[12:16] = len(payload).to_bytes(4, "little")
        frame[16:20] = payload_crc.to_bytes(4, "little")
        frame[TXN_HEADER_LEN : TXN_HEADER_LEN + len(payload)] = payload
        marker = COMMIT_MAGIC + _crc(
            seq.to_bytes(8, "little") +
            payload_crc.to_bytes(4, "little")).to_bytes(4, "little")
        frame[-COMMIT_LEN:] = marker
        return bytes(frame)

    def encode_pending(self) -> List[Tuple[int, bytes]]:
        """Pending txns as ``(lba, frame)`` writes at the current head.

        Pure: commits nothing — the kernel issues the FUA writes (timed)
        and then calls :meth:`note_committed`; ``commit_sync`` does both
        untimed.  Raises :class:`NoSpace` when the frames do not fit (the
        caller checkpoints first, which empties the log).
        """
        frames: List[Tuple[int, bytes]] = []
        head = self.head_sector
        for seq, records in self._pending:
            frame = self.encode_txn(seq, records)
            sectors = len(frame) // SECTOR_SIZE
            if head + sectors > self.journal_sectors:
                raise NoSpace("journal region full; checkpoint required")
            frames.append((self.journal_start + head, frame))
            head += sectors
        return frames

    def fits_pending(self) -> bool:
        head = self.head_sector
        for _seq, records in self._pending:
            head += self._frame_sectors(len(_encode_json(records)))
        return head <= self.journal_sectors

    def checkpoint_due(self) -> bool:
        every = self.config.checkpoint_every_txns
        return every > 0 and self._txns_since_checkpoint >= every

    def note_committed(self, frames: List[Tuple[int, bytes]]) -> None:
        """Bookkeeping after the frames reached media durably."""
        if not self._pending:
            return
        committed = len(self._pending)
        last_seq = self._pending[-1][0]
        total = sum(len(frame) for _lba, frame in frames)
        self.head_sector += total // SECTOR_SIZE
        self.txns_committed += committed
        self._txns_since_checkpoint += committed
        self.bytes_written += total
        self._pending.clear()
        if self.bus.enabled:
            self.bus.emit(obs_events.JOURNAL_COMMIT, self.clock(),
                          txns=committed, frames=len(frames),
                          bytes=total, seq=last_seq)
        for listener in self.commit_listeners:
            listener()

    def commit_sync(self) -> int:
        """Commit pending txns straight to media (untimed setup paths)."""
        if not self._pending:
            return 0
        frames = self.encode_pending()
        for lba, frame in frames:
            self.media.write(lba, frame)
        committed = len(self._pending)
        self.note_committed(frames)
        return committed

    # ------------------------------------------------------------------
    # Superblock + checkpoint
    # ------------------------------------------------------------------

    def _superblock_payload(self, ckpt_len: int, ckpt_crc: int) -> bytes:
        return _encode_json({
            "version": 1,
            "journal_blocks": self.config.journal_blocks,
            "checkpoint_blocks": self.config.checkpoint_blocks,
            "active_slot": self.active_slot,
            "ckpt_len": ckpt_len,
            "ckpt_crc": ckpt_crc,
            "ckpt_seq": self.ckpt_seq,
        })

    def write_superblock(self, ckpt_len: int, ckpt_crc: int) -> None:
        payload = self._superblock_payload(ckpt_len, ckpt_crc)
        if len(payload) + 12 > SECTOR_SIZE:
            raise NoSpace("superblock payload exceeds one sector")
        sector = bytearray(SECTOR_SIZE)
        sector[0:4] = SUPER_MAGIC
        sector[4:8] = len(payload).to_bytes(4, "little")
        sector[8:12] = _crc(payload).to_bytes(4, "little")
        sector[12 : 12 + len(payload)] = payload
        self.media.write(0, bytes(sector))

    def read_superblock(self) -> Dict[str, Any]:
        sector = self.media.read(0, 1)
        if sector[0:4] != SUPER_MAGIC:
            raise JournalCorrupt("superblock magic missing")
        length = int.from_bytes(sector[4:8], "little")
        crc = int.from_bytes(sector[8:12], "little")
        payload = sector[12 : 12 + length]
        if len(payload) != length or _crc(payload) != crc:
            raise JournalCorrupt("superblock checksum mismatch")
        return json.loads(payload.decode("utf-8"))

    def checkpoint_sync(self, state: Dict[str, Any]) -> None:
        """Serialise ``state`` to the inactive slot and truncate the log.

        Untimed maintenance (the kjournald analogue): runs atomically at a
        simulation instant, so no crash point falls inside it; the slot
        flip + superblock-written-last ordering is kept anyway, as the
        protocol recovery relies on.  Pending (never-committed) txns are
        absorbed by the checkpoint — their effects are in ``state``.
        """
        payload = _encode_json(state)
        if len(payload) > self.ckpt_sectors * SECTOR_SIZE:
            raise NoSpace(
                f"checkpoint needs {len(payload)}B, slot holds "
                f"{self.ckpt_sectors * SECTOR_SIZE}B")
        target = 1 - self.active_slot
        padded_len = ((len(payload) + SECTOR_SIZE - 1)
                      // SECTOR_SIZE) * SECTOR_SIZE
        self.media.write(self.slot_start[target],
                         payload.ljust(padded_len, b"\x00"))
        # The checkpoint covers everything assigned so far, including
        # still-pending txns, which are dropped rather than committed.
        self.active_slot = target
        self.ckpt_seq = self.next_seq - 1
        self._pending.clear()
        self.write_superblock(len(payload), _crc(payload))
        if self.head_sector:
            self.media.discard(self.journal_start, self.head_sector)
        trimmed = self.head_sector
        self.head_sector = 0
        self._txns_since_checkpoint = 0
        self.checkpoints += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.JOURNAL_CHECKPOINT, self.clock(),
                          seq=self.ckpt_seq, bytes=len(payload),
                          trimmed_sectors=trimmed)
        for listener in self.commit_listeners:
            listener()

    def read_checkpoint(self, superblock: Dict[str, Any]) -> Dict[str, Any]:
        slot = superblock["active_slot"]
        length = superblock["ckpt_len"]
        sectors = max(1, (length + SECTOR_SIZE - 1) // SECTOR_SIZE)
        raw = self.media.read(self.slot_start[slot], sectors)[:length]
        if len(raw) != length or _crc(raw) != superblock["ckpt_crc"]:
            raise JournalCorrupt("checkpoint checksum mismatch")
        return json.loads(raw.decode("utf-8"))

    # ------------------------------------------------------------------
    # Scan (recovery + fsck)
    # ------------------------------------------------------------------

    def scan(self) -> Tuple[List[Tuple[int, List[Dict[str, Any]]]],
                            int, int]:
        """Parse committed txns from the on-media log.

        Returns ``(txns, discarded, end_sector)``: txns as
        ``(seq, records)`` in log order, the count of trailing
        torn/uncommitted frames dropped, and the region-relative sector
        just past the last valid frame (the post-recovery log head).
        The scan stops at the first sector that is not a valid frame head
        (TRIMmed space reads as zeroes), at a bad checksum, at a missing
        commit marker, or at a non-monotonic sequence number.
        """
        txns: List[Tuple[int, List[Dict[str, Any]]]] = []
        discarded = 0
        sector = 0
        last_seq = self.ckpt_seq
        while sector < self.journal_sectors:
            head = self.media.read(self.journal_start + sector, 1)
            if head[0:4] != TXN_MAGIC:
                break
            seq = int.from_bytes(head[4:12], "little")
            payload_len = int.from_bytes(head[12:16], "little")
            payload_crc = int.from_bytes(head[16:20], "little")
            sectors = self._frame_sectors(payload_len)
            if sector + sectors > self.journal_sectors or seq <= last_seq:
                discarded += 1
                break
            frame = self.media.read(self.journal_start + sector, sectors)
            marker = COMMIT_MAGIC + _crc(
                seq.to_bytes(8, "little") +
                payload_crc.to_bytes(4, "little")).to_bytes(4, "little")
            payload = frame[TXN_HEADER_LEN : TXN_HEADER_LEN + payload_len]
            if frame[-COMMIT_LEN:] != marker or _crc(payload) != payload_crc:
                discarded += 1       # torn or corrupt: never committed
                break
            try:
                records = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                discarded += 1
                break
            txns.append((seq, records))
            last_seq = seq
            sector += sectors
        return txns, discarded, sector
