"""Crash consistency: write cache, journal, recovery, fsck, enumeration.

Covers the volatile write cache's FIFO/overlay/tear semantics, the NVMe
device's FLUSH/FUA/power lifecycle, the journal's frame encoding and
torn-tail scan, checkpoints (including the observable TRIM), mount-time
recovery with rollback of uncommitted metadata, the fsck invariant
checker on deliberately corrupted structures, the NVMe-layer extent
cache dropping its snapshots across a crash, the crash-point enumeration
harness itself, and the crash-path observability counters.
"""

import pytest

from repro.core.extent_cache import NvmeExtentCache
from repro.device import NAND_SSD, NVM_GEN2, BlockDevice
from repro.device.blockdev import SECTOR_SIZE
from repro.device.writecache import WriteCache
from repro.errors import (
    InvalidArgument,
    IoError,
    JournalCorrupt,
    NoSpace,
    PowerLossError,
)
from repro.faults import FaultSpec, fault_injection
from repro.faults.crashpoints import (
    _build_machine,
    _compare,
    _read_back,
    _run_ops,
    count_flush_boundaries,
    enumerate_crash_points,
    mixed_workload,
)
from repro.kernel import (
    Journal,
    JournalConfig,
    Kernel,
    KernelConfig,
    fsck,
    reload_fs,
    serialize_fs,
)
from repro.kernel.extent import Extent
from repro.kernel.extfs import BLOCK_SIZE
from repro.obs import ObsSession
from repro.sim import RandomStreams, Simulator
from simutil import commit_sync, newest_entry, software_ns

CAPACITY = 1 << 18  # sectors


def make_kernel(cache_depth=8, journal=JournalConfig(journal_blocks=32),
                seed=7, fault_plan=None):
    sim = Simulator()
    kernel = Kernel(sim, NVM_GEN2, KernelConfig(
        seed=seed, capacity_sectors=CAPACITY,
        write_cache_depth=cache_depth, journal=journal,
        fault_plan=fault_plan))
    return sim, kernel


def open_file(kernel, proc, path, create=True):
    return kernel.run_syscall(kernel.sys_open(proc, path, create=create))


# ---------------------------------------------------------------------------
# WriteCache
# ---------------------------------------------------------------------------


def sector_bytes(tag, count=1):
    return bytes([tag]) * (SECTOR_SIZE * count)


def test_write_cache_fifo_eviction_order():
    media = BlockDevice(64)
    cache = WriteCache(media, depth=2)
    cache.write(0, sector_bytes(1))
    cache.write(8, sector_bytes(2))
    assert media.read(0, 1) == bytes(SECTOR_SIZE)  # nothing durable yet
    cache.write(16, sector_bytes(3))               # evicts the oldest
    assert cache.evictions == 1
    assert media.read(0, 1) == sector_bytes(1)     # oldest destaged first
    assert media.read(8, 1) == bytes(SECTOR_SIZE)  # newer ones still cached


def test_write_cache_read_overlays_pending_records():
    media = BlockDevice(64)
    cache = WriteCache(media, depth=4)
    media.write(0, sector_bytes(9, 2))
    cache.write(1, sector_bytes(5))
    # The cached sector shadows media; its neighbours read through.
    assert cache.read(0, 2) == sector_bytes(9) + sector_bytes(5)
    # Later records win over earlier ones at the same LBA.
    cache.write(1, sector_bytes(6))
    assert cache.read(1, 1) == sector_bytes(6)


def test_write_cache_flush_destages_everything_in_order():
    media = BlockDevice(64)
    cache = WriteCache(media, depth=4)
    cache.write(0, sector_bytes(1))
    cache.write(0, sector_bytes(2))
    assert cache.flush() == 2
    assert cache._records == []
    assert media.read(0, 1) == sector_bytes(2)
    assert cache.flushed_records == 2


def test_write_cache_power_loss_drops_and_tears_only_oldest():
    media = BlockDevice(64)
    cache = WriteCache(media, depth=8)
    cache.write(0, sector_bytes(1, 4))   # oldest, multi-sector: may tear
    cache.write(16, sector_bytes(2, 4))  # younger: must vanish entirely
    rng = RandomStreams(3).stream("power")
    info = cache.power_loss(rng=rng, tear=True)
    assert info["dropped"] == 2
    assert 1 <= info["torn_sectors"] < 4
    assert info["torn_lba"] == 0
    torn = media.read(0, 4)
    cut = info["torn_sectors"] * SECTOR_SIZE
    assert torn[:cut] == sector_bytes(1, 4)[:cut]   # persisted prefix
    assert torn[cut:] == bytes(4 * SECTOR_SIZE - cut)  # rest never landed
    assert media.read(16, 4) == bytes(4 * SECTOR_SIZE)


def test_write_cache_single_sector_never_tears():
    media = BlockDevice(64)
    cache = WriteCache(media, depth=8)
    cache.write(0, sector_bytes(1))
    info = cache.power_loss(rng=RandomStreams(3).stream("power"), tear=True)
    assert info == {"dropped": 1, "torn_sectors": 0, "torn_lba": -1}
    assert media.read(0, 1) == bytes(SECTOR_SIZE)


def test_write_cache_rejects_zero_depth():
    with pytest.raises(InvalidArgument):
        WriteCache(BlockDevice(64), depth=0)


# ---------------------------------------------------------------------------
# NVMe power lifecycle
# ---------------------------------------------------------------------------


def test_powered_off_device_rejects_submissions():
    sim, kernel = make_kernel()
    kernel.device.power_loss()
    from repro.device import NvmeCommand

    with pytest.raises(PowerLossError):
        kernel.device.submit(NvmeCommand("read", 0, 1))
    kernel.device.power_on()
    assert not kernel.device.powered_off
    assert kernel.device.power_cycles == 1


def test_fsync_flushes_cache_and_commits_journal():
    sim, kernel = make_kernel(cache_depth=8)
    proc = kernel.spawn_process("t")
    fd = open_file(kernel, proc, "/f")
    kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, b"x" * 4096))
    assert kernel.device.write_cache._records
    assert kernel.fs.journal.pending_txns > 0
    kernel.run_syscall(kernel.sys_fsync(proc, fd))
    assert kernel.device.write_cache._records == []
    assert kernel.fs.journal.pending_txns == 0
    assert kernel.device.flushes == 1
    assert kernel.fsyncs == 1
    assert kernel.fs.journal.txns_committed > 0


# ---------------------------------------------------------------------------
# Journal framing, scan, checkpoint
# ---------------------------------------------------------------------------


def make_journal(journal_blocks=8, checkpoint_blocks=4, capacity=4096,
                 **kwargs):
    media = BlockDevice(capacity)
    journal = Journal(media, JournalConfig(
        journal_blocks=journal_blocks, checkpoint_blocks=checkpoint_blocks,
        **kwargs))
    return media, journal


def test_journal_config_validation():
    with pytest.raises(InvalidArgument):
        JournalConfig(journal_blocks=0)
    with pytest.raises(InvalidArgument):
        JournalConfig(checkpoint_blocks=0)
    with pytest.raises(InvalidArgument):
        JournalConfig(checkpoint_every_txns=-1)
    with pytest.raises(InvalidArgument):
        Journal(BlockDevice(64), JournalConfig())  # device too small


def test_journal_log_requires_open_txn():
    _media, journal = make_journal()
    with pytest.raises(InvalidArgument):
        journal.log({"op": "create"})
    with pytest.raises(InvalidArgument):
        journal.end()


def test_journal_nested_txns_collapse_and_empty_txns_vanish():
    _media, journal = make_journal()
    journal.begin()
    journal.begin()
    journal.log({"op": "create", "path": "/a", "ino": 2})
    journal.end()
    assert journal.pending_txns == 0      # still inside the outer scope
    journal.log({"op": "size", "ino": 2, "size": 10})
    journal.end()
    assert journal.pending_txns == 1      # one txn, both records
    journal.begin()
    journal.end()                          # no records: no txn assigned
    assert journal.pending_txns == 1
    assert journal.next_seq == 2


def test_journal_commit_scan_roundtrip():
    _media, journal = make_journal()
    records = [{"op": "create", "path": "/a", "ino": 2},
               {"op": "size", "ino": 2, "size": 123}]
    journal.begin()
    for record in records:
        journal.log(record)
    journal.end()
    assert commit_sync(journal) == 1
    txns, discarded, end_sector = journal.scan()
    assert txns == [(1, records)]
    assert discarded == 0
    assert end_sector == journal.head_sector


def test_journal_scan_discards_torn_frame():
    media, journal = make_journal()
    journal.begin()
    journal.log({"op": "create", "path": "/a", "ino": 2})
    journal.end()
    journal.begin()
    journal.log({"op": "alloc", "ino": 2,
                 "extents": [[i, 100 + i, 1] for i in range(120)]})
    journal.end()
    frames = journal.encode_pending()
    assert len(frames[1][1]) > SECTOR_SIZE  # the frame we are tearing
    # First frame lands whole; the second loses its final sector (where
    # the commit marker lives) — a torn journal write.
    media.write(frames[0][0], frames[0][1])
    torn = frames[1][1][:-SECTOR_SIZE]
    media.write(frames[1][0], torn)
    txns, discarded, end_sector = journal.scan()
    assert [seq for seq, _r in txns] == [1]
    assert discarded == 1
    assert end_sector == len(frames[0][1]) // SECTOR_SIZE


def test_journal_scan_discards_corrupt_payload():
    media, journal = make_journal()
    journal.begin()
    journal.log({"op": "create", "path": "/a", "ino": 2})
    journal.end()
    commit_sync(journal)
    lba = journal.journal_start
    frame = bytearray(media.read(lba, 1))
    frame[24] ^= 0xFF                      # flip a payload byte
    media.write(lba, bytes(frame))
    txns, discarded, _end = journal.scan()
    assert txns == []
    assert discarded == 1


def test_journal_overflow_raises_no_space():
    _media, journal = make_journal(journal_blocks=1)
    blob = [{"op": "alloc", "ino": 2,
             "extents": [[i, 100 + i, 1] for i in range(400)]}]
    journal.begin()
    for record in blob:
        journal.log(record)
    journal.end()
    with pytest.raises(NoSpace):
        journal.encode_pending()
    assert not journal.fits_pending()


def test_checkpoint_flips_slot_trims_log_and_absorbs_pending():
    media, journal = make_journal()
    journal.begin()
    journal.log({"op": "create", "path": "/a", "ino": 2})
    journal.end()
    commit_sync(journal)
    journal.begin()
    journal.log({"op": "create", "path": "/b", "ino": 3})
    journal.end()                          # pending, never committed
    state = {"version": 1, "next_ino": 4, "inodes": [], "tree": []}
    discards_before = media.discards
    journal.checkpoint_sync(state)
    assert journal.active_slot == 1
    assert journal.head_sector == 0
    assert journal.pending_txns == 0       # absorbed, not lost
    assert journal.ckpt_seq == 2
    assert media.discards > discards_before  # TRIM is observable
    superblock = journal.read_superblock()
    assert superblock["active_slot"] == 1
    assert superblock["ckpt_seq"] == 2
    assert journal.read_checkpoint(superblock) == state
    assert journal.scan() == ([], 0, 0)    # log is empty again


def test_corrupt_superblock_detected():
    media, journal = make_journal()
    journal.checkpoint_sync({"version": 1})
    sector = bytearray(media.read(0, 1))
    sector[20] ^= 0xFF
    media.write(0, bytes(sector))
    with pytest.raises(JournalCorrupt):
        journal.read_superblock()


# ---------------------------------------------------------------------------
# Crash + recovery through the kernel
# ---------------------------------------------------------------------------


def write_file(kernel, proc, path, data, sync=True):
    fd = open_file(kernel, proc, path)
    kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, data))
    if sync:
        kernel.run_syscall(kernel.sys_fsync(proc, fd))
    return fd


def test_recover_replays_committed_metadata():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    payload = bytes(range(256)) * 32       # 8 KiB
    write_file(kernel, proc, "/keep", payload)
    kernel.crash()
    assert kernel.device.powered_off
    report = kernel.recover()
    assert report.replayed_txns > 0
    assert kernel.recoveries == 1
    inode = kernel.fs.lookup("/keep")
    assert kernel.fs.read_sync(inode, 0, inode.size) == payload
    assert fsck(kernel.fs).ok


def test_recover_rolls_back_uncommitted_tail():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    keep = b"k" * 4096
    fd = write_file(kernel, proc, "/keep", keep)
    # Post-fsync, never-synced mutations: all must roll back.
    kernel.run_syscall(kernel.sys_ftruncate(proc, fd, 1024))
    write_file(kernel, proc, "/lost", b"l" * 4096, sync=False)
    kernel.run_syscall(kernel.sys_rename(proc, "/keep", "/renamed"))
    kernel.crash()
    kernel.recover()
    assert fsck(kernel.fs).ok
    inode = kernel.fs.lookup("/keep")      # rename rolled back
    assert inode.size == len(keep)         # truncate rolled back
    assert kernel.fs.read_sync(inode, 0, inode.size) == keep
    for ghost in ("/lost", "/renamed"):
        with pytest.raises(Exception):
            kernel.fs.lookup(ghost)


def test_recover_survives_unlink_and_reuse_cycle():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    write_file(kernel, proc, "/a", b"a" * 8192)
    kernel.run_syscall(kernel.sys_unlink(proc, "/a"))
    write_file(kernel, proc, "/b", b"b" * 8192)  # fsync commits the unlink
    kernel.crash()
    kernel.recover()
    assert fsck(kernel.fs).ok
    with pytest.raises(Exception):
        kernel.fs.lookup("/a")
    inode = kernel.fs.lookup("/b")
    assert kernel.fs.read_sync(inode, 0, inode.size) == b"b" * 8192


def test_recover_requires_a_journal():
    sim, kernel = make_kernel(journal=None, cache_depth=0)
    kernel.crash()
    kernel.device.power_on()
    with pytest.raises(InvalidArgument):
        reload_fs(kernel.fs)


def test_syscalls_surface_power_loss():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    fd = write_file(kernel, proc, "/f", b"x" * 4096)
    kernel.crash()
    with pytest.raises(PowerLossError):
        kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, b"y" * 4096))


@pytest.mark.parametrize("model", [NVM_GEN2, NAND_SSD],
                         ids=["polling", "interrupt"])
def test_read_in_flight_at_power_cut_reports_power_loss(model):
    # No fault plan: the power cut is the read's only failure.
    sim = Simulator()
    kernel = Kernel(sim, model, KernelConfig(seed=7, capacity_sectors=CAPACITY))
    proc = kernel.spawn_process("t")
    kernel.create_file("/f", b"x" * 4096)
    fd = open_file(kernel, proc, "/f", create=False)

    def cut():
        # Past the doorbell, half way through the device's service time.
        yield sim.timeout(software_ns(kernel.cost) +
                          model.read_ns // 2)
        kernel.crash()

    sim.spawn(cut(), name="cut")
    assert kernel.should_poll() == (model is NVM_GEN2)
    with pytest.raises(PowerLossError):
        kernel.run_syscall(kernel.sys_pread(proc, fd, 0, 512))


def test_extent_cache_drops_snapshots_across_recovery():
    sim, kernel = make_kernel()
    cache = NvmeExtentCache(kernel.fs)
    proc = kernel.spawn_process("t")
    write_file(kernel, proc, "/f", b"x" * 8192)
    inode = kernel.fs.lookup("/f")
    entry = cache.install(inode)
    assert entry.valid
    assert newest_entry(cache, inode) is entry
    kernel.crash()
    kernel.recover()
    # Every snapshot is gone: chains must renegotiate via EEXTENT.
    assert not entry.valid
    assert newest_entry(cache, kernel.fs.lookup("/f")) is None
    assert cache.invalidations >= 1
    # Reinstall works against the recovered tree.
    fresh = cache.install(kernel.fs.lookup("/f"))
    assert fresh.valid


def test_power_cut_mid_fsync_rolls_back_cleanly():
    spec = FaultSpec(seed=11, power_loss_after_flushes=1)
    with fault_injection(spec):
        sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    fd = open_file(kernel, proc, "/f")
    kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, b"x" * 4096))
    # The cut fires the instant the FLUSH completes — data is durable,
    # but the journal commit never happens.
    with pytest.raises(PowerLossError):
        kernel.run_syscall(kernel.sys_fsync(proc, fd))
    report = kernel.recover()
    assert report.replayed_txns == 0
    assert fsck(kernel.fs).ok
    with pytest.raises(Exception):
        kernel.fs.lookup("/f")             # creation was never committed


# ---------------------------------------------------------------------------
# fsck catches seeded corruption
# ---------------------------------------------------------------------------


def corrupted_fs():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    write_file(kernel, proc, "/f", b"x" * 8192)
    return kernel.fs


def test_fsck_flags_overlapping_extents():
    fs = corrupted_fs()
    victim = fs.lookup("/f")
    ghost = fs.create("/ghost")
    first = next(iter(victim.extents))
    ghost.extents.add(Extent(0, first.phys_block, 1))
    ghost.size = BLOCK_SIZE
    report = fsck(fs)
    assert not report.ok
    assert any("overlap" in v for v in report.violations)


def test_fsck_flags_extent_past_eof():
    fs = corrupted_fs()
    inode = fs.lookup("/f")
    inode.size = 100                       # two blocks remain mapped
    report = fsck(fs)
    assert not report.ok
    assert any("EOF" in v for v in report.violations)


def test_fsck_flags_out_of_bounds_extent():
    fs = corrupted_fs()
    inode = fs.lookup("/f")
    inode.extents.add(Extent(2, fs.total_blocks + 5, 1))
    inode.size = 3 * BLOCK_SIZE
    report = fsck(fs)
    assert not report.ok
    assert any("outside" in v for v in report.violations)


def test_fsck_flags_allocator_skew():
    fs = corrupted_fs()
    runs = fs._allocator.allocate(1, 1)   # leak a block
    assert runs
    report = fsck(fs)
    assert not report.ok
    assert any("allocator" in v for v in report.violations)


def test_fsck_clean_on_healthy_fs():
    report = fsck(corrupted_fs())
    assert report.ok
    assert report.checks >= 6


# ---------------------------------------------------------------------------
# Crash-point enumeration (the tentpole acceptance criterion)
# ---------------------------------------------------------------------------


def test_mixed_workload_has_multiple_flush_boundaries():
    ops = mixed_workload()
    assert count_flush_boundaries(ops) == 4


def test_every_flush_boundary_recovers_consistently():
    results = enumerate_crash_points(at="flush")
    assert len(results) == 4
    for result in results:
        assert result.ok, result
    # Later cuts see strictly more committed history.
    replayed = [r.replayed_txns for r in results]
    assert replayed == sorted(replayed)


def test_every_op_boundary_recovers_consistently_with_torn_writes():
    results = enumerate_crash_points(at="op", tear=True)
    assert len(results) == len(mixed_workload())
    for result in results:
        assert result.ok, result
    # The cache was actually holding data at some cut points...
    assert any(r.dropped_writes > 0 for r in results)
    # ...and the tear machinery actually tore something.
    assert any(r.torn_sectors > 0 for r in results)


def test_sync_commit_write_through_loses_nothing():
    journal = JournalConfig(journal_blocks=32, sync_commit=True)
    results = enumerate_crash_points(at="op", cache_depth=0,
                                     journal=journal)
    for result in results:
        assert result.ok, result
        # Every completed op is durable: recovery loses zero operations.
        assert result.commit_index == result.ops_completed


# ---------------------------------------------------------------------------
# Write faults on the durability path
# ---------------------------------------------------------------------------


def test_fsync_retries_a_faulted_journal_frame_with_fua():
    # A transient fault on the first journal frame is retried under the
    # driver's rule like any data write; the retry keeps FUA, so a power
    # cut right after fsync returns still finds the frame on media.
    sim, kernel = make_kernel(cache_depth=8, fault_plan=FaultSpec())
    journal = kernel.fs.journal
    kernel.fault_plan.inject(journal.journal_start + journal.head_sector,
                             opcode="write")
    proc = kernel.spawn_process("t")
    fd = open_file(kernel, proc, "/f")
    kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, b"j" * 8192))
    assert kernel.run_syscall(kernel.sys_fsync(proc, fd)) == 0
    assert kernel.nvme_retries == 1
    kernel.crash()
    kernel.recover()
    assert fsck(kernel.fs).ok
    inode = kernel.fs.lookup("/f")
    assert kernel.fs.read_sync(inode, 0, inode.size) == b"j" * 8192


def test_seeded_write_fault_schedule_keeps_every_fsync_durable():
    # Seeds 0..39 of the crash workload under random write faults and
    # timeouts: the retry rule absorbs every fault (no syscall fails), and
    # a power cut after the last fsync recovers a clean file system equal
    # to the shadow state it committed.
    failures = {}
    for seed in range(40):
        spec = FaultSpec(seed=seed, write_error_rate=0.05,
                         timeout_rate=0.005)
        kernel = _build_machine(seed, 8, JournalConfig(), spec, CAPACITY)
        ops = mixed_workload(seed)
        try:
            run = _run_ops(kernel, ops, seed)
        except IoError as exc:
            failures[seed] = f"IoError: {exc}"
            continue
        if run.crashed or run.completed != len(ops) - 1:
            failures[seed] = f"stopped after op {run.completed}"
            continue
        kernel.crash()
        kernel.recover()
        problems = list(fsck(kernel.fs).violations)
        problems += _compare(run.committed_state, _read_back(kernel.fs))
        if problems:
            failures[seed] = problems
    assert failures == {}


# ---------------------------------------------------------------------------
# Zero-length reads (satellite)
# ---------------------------------------------------------------------------


def test_pread_zero_length_returns_empty():
    sim, kernel = make_kernel(journal=None, cache_depth=0)
    proc = kernel.spawn_process("t")
    fd = open_file(kernel, proc, "/f")
    kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, b"x" * 4096))
    result = kernel.run_syscall(kernel.sys_pread(proc, fd, 100, 0))
    assert result.data == b""
    assert result.final_offset == 100
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(kernel.sys_pread(proc, fd, 0, -1))


def test_read_sync_zero_and_negative_lengths():
    sim, kernel = make_kernel(journal=None, cache_depth=0)
    inode = kernel.fs.create("/f")
    kernel.fs.write_sync(inode, 0, b"x" * 100)
    assert kernel.fs.read_sync(inode, 40, 0) == b""
    with pytest.raises(InvalidArgument):
        kernel.fs.read_sync(inode, 0, -5)


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


def test_crash_path_metrics_reconcile():
    with ObsSession() as obs:
        sim, kernel = make_kernel()
        proc = kernel.spawn_process("t")
        write_file(kernel, proc, "/a", b"a" * 8192)
        write_file(kernel, proc, "/b", b"b" * 4096)
        kernel.fs.checkpoint_sync()
        kernel.crash()
        kernel.recover()
        fsck(kernel.fs)
    registry = obs.registry
    assert registry.get("nvme_flushes_total").value() == \
        kernel.device.flushes == 2
    assert registry.get("power_losses_total").value() == 1
    journal = kernel.fs.journal
    assert registry.get("journal_commits_total").value() > 0
    assert registry.get("journal_txns_total").value(outcome="committed") \
        == journal.txns_committed
    assert registry.get("journal_checkpoints_total").value() >= 1
    assert registry.get("fsck_runs_total").value() == 1
    assert registry.get("fsck_violations_total").value() == 0
    # Sector traffic is attributed per opcode, discards included (the
    # checkpoint TRIMmed the journal region).
    sectors = registry.get("blockdev_sectors_total")
    assert sectors.value(op="write") > 0
    assert sectors.value(op="discard") > 0


def test_serialize_fs_is_deterministic():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process("t")
    write_file(kernel, proc, "/x", b"x" * 4096)
    first = serialize_fs(kernel.fs)
    second = serialize_fs(kernel.fs)
    assert first == second
    assert first["inodes"][0]["ino"] == 1
