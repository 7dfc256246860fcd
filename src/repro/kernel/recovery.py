"""Crash recovery and fsck for the journaled file system.

After a simulated power cut (:meth:`~repro.device.nvme.NvmeDevice.
power_loss`) everything volatile is gone: the device's write cache, the
in-memory namespace, inode table, extent trees, allocator, and every
NVMe-layer extent-cache snapshot.  :func:`reload_fs` rebuilds an
:class:`~repro.kernel.extfs.ExtFs` **purely from media**, the way a real
journaling file system mounts after a crash:

1. read + checksum the superblock (sector 0, atomic by construction);
2. load the active checkpoint slot it points at;
3. scan the journal region and replay committed transactions in sequence
   order, discarding the torn or uncommitted tail;
4. rebuild the block allocator from the surviving extent trees;
5. notify ``fs.recovery_listeners`` so derived caches (the NVMe-layer
   extent cache of §4) drop every snapshot — forcing chains through the
   EEXTENT reinstall protocol afterwards.

:func:`fsck` is the independent auditor: it re-derives the crash-consistency
invariants from the recovered structures (no overlapping or out-of-bounds
extents, no extent past EOF, clean directory tree, allocator accounting,
well-formed journal) and reports violations instead of trusting replay.
The crash-point harness (:mod:`repro.faults.crashpoints`) runs it after
every enumerated crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.errors import InvalidArgument, JournalCorrupt
from repro.kernel.extent import Extent, ExtentTree
from repro.kernel.extfs import BLOCK_SIZE, ExtFs, Inode, _Allocator
from repro.obs import events as obs_events

__all__ = ["FsckReport", "RecoveryReport", "fsck", "reload_fs"]


@dataclass
class RecoveryReport:
    """What one journal-replay mount did."""

    checkpoint_seq: int
    replayed_txns: int
    discarded_txns: int
    files: int
    dirs: int


@dataclass
class FsckReport:
    """Invariant-checker result: ``ok`` iff no violation was found."""

    checks: int = 0
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# Checkpoint restore + record replay
# ---------------------------------------------------------------------------

def _restore_checkpoint(fs: ExtFs,
                        state: Dict[str, Any]) -> Dict[int, Inode]:
    by_ino: Dict[int, Inode] = {}
    for row in state["inodes"]:
        inode = Inode(row["ino"], is_dir=bool(row["dir"]))
        inode.size = row["size"]
        for file_block, phys_block, count in row["extents"]:
            inode.extents.add(Extent(file_block, phys_block, count))
        by_ino[inode.number] = inode
    for parent_ino, name, child_ino in state["tree"]:
        by_ino[parent_ino].entries[name] = by_ino[child_ino]
    fs.root = by_ino[1]
    fs._next_ino = state["next_ino"]
    return by_ino


def _resolve_parent(fs: ExtFs, path: str) -> Tuple[Inode, str]:
    parts = fs._split(path)
    if not parts:
        raise JournalCorrupt(f"journal record targets the root: {path!r}")
    node = fs.root
    for part in parts[:-1]:
        node = node.entries[part]
    return node, parts[-1]


def _clear_inode(inode: Inode) -> None:
    inode.extents = ExtentTree()
    inode.size = 0


def _apply_record(fs: ExtFs, by_ino: Dict[int, Inode],
                  record: Dict[str, Any]) -> None:
    """Re-apply one logical journal record to the in-memory structures.

    Replay bypasses the ExtFs mutation methods: those would journal again
    and touch the allocator, but replay's job is only to reproduce the
    post-txn metadata; the allocator is rebuilt afterwards from the
    surviving extents.
    """
    op = record["op"]
    try:
        if op in ("create", "mkdir"):
            parent, name = _resolve_parent(fs, record["path"])
            inode = Inode(record["ino"], is_dir=(op == "mkdir"))
            parent.entries[name] = inode
            by_ino[inode.number] = inode
            fs._next_ino = max(fs._next_ino, inode.number + 1)
        elif op == "unlink":
            parent, name = _resolve_parent(fs, record["path"])
            _clear_inode(parent.entries.pop(name))
        elif op == "rename":
            old_parent, old_name = _resolve_parent(fs, record["old"])
            inode = old_parent.entries.pop(old_name)
            new_parent, new_name = _resolve_parent(fs, record["new"])
            displaced = new_parent.entries.get(new_name)
            if displaced is not None:
                _clear_inode(displaced)
            new_parent.entries[new_name] = inode
        elif op == "alloc":
            inode = by_ino[record["ino"]]
            for file_block, phys_block, count in record["extents"]:
                inode.extents.add(Extent(file_block, phys_block, count))
        elif op == "punch":
            by_ino[record["ino"]].extents.punch(record["file_block"],
                                                record["count"])
        elif op == "size":
            by_ino[record["ino"]].size = record["size"]
        else:
            raise JournalCorrupt(f"unknown journal record op {op!r}")
    except (KeyError, AttributeError) as exc:
        raise JournalCorrupt(
            f"journal record {record!r} does not apply: {exc!r}")


def _walk_inodes(fs: ExtFs) -> List[Inode]:
    out: List[Inode] = []
    stack = [fs.root]
    while stack:
        inode = stack.pop()
        out.append(inode)
        if inode.is_dir:
            stack.extend(inode.entries.values())
    return out


def reload_fs(fs: ExtFs) -> RecoveryReport:
    """Rebuild ``fs`` in place from its media (mount-after-crash).

    Raises :class:`JournalCorrupt` when the superblock, checkpoint, or a
    committed record is unusable; torn/uncommitted journal tails are
    expected and silently discarded.
    """
    journal = fs.journal
    if journal is None:
        raise InvalidArgument("cannot recover a file system with no journal")
    superblock = journal.read_superblock()
    journal.active_slot = superblock["active_slot"]
    journal.ckpt_seq = superblock["ckpt_seq"]
    state = journal.read_checkpoint(superblock)
    by_ino = _restore_checkpoint(fs, state)
    txns, discarded, end_sector = journal.scan()
    for _seq, records in txns:
        for record in records:
            _apply_record(fs, by_ino, record)
    # Reset the journal's volatile head to match what survived on media.
    journal.next_seq = (txns[-1][0] if txns else journal.ckpt_seq) + 1
    journal.head_sector = end_sector
    journal._pending.clear()
    journal._txn_records = []
    journal._txn_depth = 0
    # Rebuild the allocator from the extents that survived; overlap here
    # means the metadata itself is corrupt.
    allocator = _Allocator(fs.total_blocks,
                           reserved=journal.reserved_blocks)
    files = dirs = 0
    for inode in _walk_inodes(fs):
        if inode.is_dir:
            dirs += 1
            continue
        files += 1
        for extent in inode.extents.extents():
            try:
                allocator.reserve_run(extent.phys_block, extent.count)
            except InvalidArgument as exc:
                raise JournalCorrupt(
                    f"ino {inode.number}: extent at block "
                    f"{extent.phys_block} unusable: {exc}")
    fs._allocator = allocator
    fs._pending_frees.clear()
    fs._pending_zeroes.clear()
    fs.notify_recovery()
    report = RecoveryReport(checkpoint_seq=superblock["ckpt_seq"],
                            replayed_txns=len(txns),
                            discarded_txns=discarded,
                            files=files, dirs=dirs)
    if fs.bus.enabled:
        fs.bus.emit(obs_events.JOURNAL_REPLAY, fs.clock(),
                    replayed=report.replayed_txns,
                    discarded=report.discarded_txns,
                    seq=journal.next_seq - 1)
    return report


# ---------------------------------------------------------------------------
# fsck
# ---------------------------------------------------------------------------

def fsck(fs: ExtFs) -> FsckReport:
    """Audit the crash-consistency invariants of a (recovered) ExtFs."""
    report = FsckReport()

    def check(name: str, problems: List[str]) -> None:
        report.checks += 1
        report.violations.extend(f"{name}: {p}" for p in problems)

    reserved = (fs.journal.reserved_blocks if fs.journal is not None else 1)
    inodes = _walk_inodes(fs)

    # 1. unique inode numbers, each inode linked exactly once.
    problems: List[str] = []
    seen: Dict[int, int] = {}
    for inode in inodes:
        seen[inode.number] = seen.get(inode.number, 0) + 1
    for number, links in seen.items():
        if links > 1:
            problems.append(f"ino {number} linked {links} times")
    check("namespace", problems)

    # 2. extents within the data region and not overlapping each other.
    problems = []
    runs: List[Tuple[int, int, int]] = []
    for inode in inodes:
        if inode.is_dir:
            continue
        for extent in inode.extents.extents():
            if extent.phys_block < reserved or \
                    extent.phys_block + extent.count > fs.total_blocks:
                problems.append(
                    f"ino {inode.number}: extent [{extent.phys_block}, "
                    f"{extent.phys_block + extent.count}) outside data "
                    f"region [{reserved}, {fs.total_blocks})")
            runs.append((extent.phys_block, extent.count, inode.number))
    runs.sort()
    for (a_start, a_count, a_ino), (b_start, _b, b_ino) in \
            zip(runs, runs[1:]):
        if a_start + a_count > b_start:
            problems.append(f"extents of ino {a_ino} and ino {b_ino} "
                            f"overlap at block {b_start}")
    check("extents", problems)

    # 3. sizes consistent: no file block mapped at or past ceil(size/4K).
    problems = []
    for inode in inodes:
        if inode.is_dir:
            continue
        limit = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for extent in inode.extents.extents():
            if extent.file_block + extent.count > limit:
                problems.append(
                    f"ino {inode.number}: block "
                    f"{extent.file_block + extent.count - 1} mapped past "
                    f"EOF (size {inode.size})")
    check("sizes", problems)

    # 4. directories carry no data.
    problems = []
    for inode in inodes:
        if inode.is_dir and (inode.size or len(inode.extents)):
            problems.append(f"dir ino {inode.number} has data")
    check("directories", problems)

    # 5. allocator accounting matches the extent trees (blocks punched by
    # uncommitted txns are parked in _pending_frees, neither mapped nor
    # free, so a live-fs audit must count them too).
    problems = []
    used = sum(count for _start, count, _ino in runs)
    parked = sum(count for _start, count in fs._pending_frees)
    expected_free = fs.total_blocks - reserved - used - parked
    actual_free = fs._allocator.free_blocks()
    if actual_free != expected_free:
        problems.append(f"allocator reports {actual_free} free blocks, "
                        f"extents imply {expected_free}")
    check("allocator", problems)

    # 6. on-media journal structures are well-formed.
    if fs.journal is not None:
        problems = []
        try:
            superblock = fs.journal.read_superblock()
            fs.journal.read_checkpoint(superblock)
        except JournalCorrupt as exc:
            problems.append(str(exc))
        check("journal", problems)

    if fs.bus.enabled:
        fs.bus.emit(obs_events.FSCK_REPORT, fs.clock(),
                    checks=report.checks,
                    violations=len(report.violations))
    return report
