"""Tests for ``repro.compact`` — in-kernel LSM compaction offload.

Covers the merge sink and helpers, the BPF merge program, the
CompactionEngine's user/offloaded equivalence and boundary-byte
accounting, system-traffic QoS attribution, the COMPACT wire op, the remote
(one-RPC) path, and graceful degradation of concurrent chain gets
across the compaction's extent unlinks.
"""

import pytest

from repro.bench.runner import NVM2_BENCH
from repro.compact import CompactionEngine, MergeSink, sstable_merge_program
from repro.core import Hook, StorageBpf
from repro.core.library import index_traversal_program
from repro.errors import InvalidArgument
from repro.kernel import Kernel, KernelConfig
from repro.net import NetConfig, NetworkFabric, StorageTarget
from repro.net import wire
from repro.obs import ObsSession
from repro.sim import Simulator
from repro.compact import engine as compact_engine
from repro.structures import FsBackend, LsmTree, MemoryBackend, SsTable
from repro.structures.lsm import TOMBSTONE


def make_machine(seed=3, cores=4):
    sim = Simulator()
    kernel = Kernel(sim, NVM2_BENCH, KernelConfig(cores=cores, seed=seed))
    return sim, kernel, StorageBpf(kernel)


def seed_tree(fs, runs=3, keys_per_run=120, tombstones_per_run=10):
    tree = LsmTree(fs, "/db", memtable_limit=4 * keys_per_run,
                   l0_limit=runs + 4)
    half = keys_per_run // 2
    for run in range(runs):
        base = run * half
        for index in range(keys_per_run):
            tree.put(base + index, run * 10_000 + index)
        for index in range(tombstones_per_run):
            tree.delete(base + index * 3)
        tree.flush()
    return tree


def run_compaction(mode, **kwargs):
    sim, kernel, bpf = make_machine()
    tree = seed_tree(kernel.fs, **kwargs)
    engine = CompactionEngine(bpf)
    proc = engine.spawn()
    out = {}

    def driver():
        out["report"] = yield from engine.compact_tree(proc, tree, 0,
                                                       mode=mode)

    kernel.run_syscall(driver())
    return tree, out["report"]


# ---------------------------------------------------------------------------
# MergeSink and the merge program
# ---------------------------------------------------------------------------


def test_merge_sink_upserts_and_drops():
    sink = MergeSink()
    assert sink.emit(5, 50) == 1
    assert sink.emit(5, 51) == 2  # newer run overwrites
    assert sink.emit(1, 10) == 3
    assert sink.drop(5) == 1
    assert sink.items() == [(1, 10)]
    assert (sink.emitted, sink.dropped) == (3, 1)


def test_merge_program_verifies():
    _sim, _kernel, bpf = make_machine()
    program = sstable_merge_program()
    bpf.verify_program(program)  # raises on rejection


def test_helpers_are_noops_without_a_sink():
    # A merge chain read without an attached sink must not crash: the
    # helpers return 0.
    sim, kernel, bpf = make_machine()
    tree = seed_tree(kernel.fs, runs=1)
    path = tree.levels[0][0][0]
    program = sstable_merge_program()

    def driver():
        handle = yield from bpf.open_chain(
            proc, path, program, hook=Hook.NVME, block_size=4096,
            scratch_size=64, args=(0,))
        result = yield from handle.read_robust(4096)
        yield from handle.close()
        return result

    proc = kernel.spawn_process("nosink")
    result = kernel.run_syscall(driver())
    assert result.ok
    assert result.value == 0  # nothing emitted anywhere


# ---------------------------------------------------------------------------
# Engine: user vs offloaded equivalence and accounting
# ---------------------------------------------------------------------------


def test_user_and_offloaded_produce_identical_tables():
    user_tree, user_report = run_compaction("user")
    off_tree, off_report = run_compaction("offloaded")
    user_items = list(user_tree.levels[1][0][1].entries())
    off_items = list(off_tree.levels[1][0][1].entries())
    assert user_items == off_items
    assert user_report.output_bytes == off_report.output_bytes
    assert user_report.output_entries == off_report.output_entries
    # Both modes count per streamed entry.
    assert (user_report.emitted, user_report.dropped) == \
        (off_report.emitted, off_report.dropped)


def test_offloaded_moves_5x_fewer_boundary_bytes():
    _user_tree, user_report = run_compaction("user")
    _off_tree, off_report = run_compaction("offloaded")
    assert user_report.user_bytes >= 5 * off_report.user_bytes
    # The offloaded rewrite still moves the image — below the boundary.
    assert off_report.kernel_bytes == off_report.output_bytes
    assert off_report.chain_hops > 0


def test_output_image_is_written_from_the_staging_buffer(monkeypatch):
    """The output table is staged in memory and handed to ``sys_pwrite``
    as the staging backend's own buffer, not a copy of it."""
    sim, kernel, bpf = make_machine()
    tree = seed_tree(kernel.fs)
    staged, written = [], []

    class Staging(MemoryBackend):
        def __init__(self):
            super().__init__()
            staged.append(self)

    def sys_pwrite(proc, fd, offset, data):
        written.append(data)
        return (yield from pwrite(proc, fd, offset, data))

    pwrite = kernel.sys_pwrite
    monkeypatch.setattr(compact_engine, "MemoryBackend", Staging)
    monkeypatch.setattr(kernel, "sys_pwrite", sys_pwrite)
    engine = CompactionEngine(bpf)
    proc = engine.spawn()
    kernel.run_syscall(engine.compact_tree(proc, tree, 0, mode="offloaded"))
    [staging] = staged
    [image] = written
    assert image is staging.read(0, staging.size)


def test_bottom_level_compaction_drops_tombstones():
    tree, report = run_compaction("offloaded")
    assert report.dropped > 0
    merged = list(tree.levels[1][0][1].entries())
    assert all(value != TOMBSTONE for _key, value in merged)
    for key in range(0, 30, 3):  # run-0 tombstones not resurrected
        assert tree.get(key) is None


def test_compaction_unlinks_inputs_and_serves_reads():
    tree, report = run_compaction("offloaded")
    assert tree.compactions == 1
    assert tree.tables_deleted == report.tables
    assert len(tree.levels[0]) == 0
    half = 120 // 2
    for key in range(0, 2 * half + 120, 7):
        expected = tree.get(key)  # must not raise on unlinked tables
        if expected is not None:
            assert isinstance(expected, int)


def test_unknown_mode_rejected():
    sim, kernel, bpf = make_machine()
    engine = CompactionEngine(bpf)
    proc = engine.spawn()
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(engine.compact_files(proc, [], "/db/x",
                                                mode="quantum"))


def test_engine_metrics_counters():
    with ObsSession() as obs:
        sim, kernel, bpf = make_machine()
        tree = seed_tree(kernel.fs)
        engine = CompactionEngine(bpf)
        proc = engine.spawn()
        kernel.run_syscall(engine.compact_tree(proc, tree, 0,
                                               mode="offloaded"))
    registry = obs.registry
    runs = registry.counter("compact_runs_total", "")
    assert runs.value(mode="offloaded") == 1
    boundary = registry.counter("compact_boundary_bytes_total", "")
    assert boundary.value(boundary="syscall", mode="offloaded") > 0
    assert boundary.value(boundary="kernel", mode="offloaded") > 0
    assert (boundary.value(boundary="syscall", mode="offloaded")
            < boundary.value(boundary="kernel", mode="offloaded"))


# ---------------------------------------------------------------------------
# QoS attribution (always system traffic)
# ---------------------------------------------------------------------------


def test_compaction_is_system_traffic_by_default():
    _sim, _kernel, bpf = make_machine()
    assert CompactionEngine(bpf).spawn().tenant is None


# ---------------------------------------------------------------------------
# Wire op (the COMPACT codecs are covered with every other row of the op
# table by tests/test_net.py)
# ---------------------------------------------------------------------------


def test_wire_compact_op_named():
    assert wire.OP_NAMES[wire.OP_COMPACT] == "compact"


# ---------------------------------------------------------------------------
# Remote (one-RPC) compaction
# ---------------------------------------------------------------------------


def test_remote_compact_matches_local_offloaded():
    _off_tree, off_report = run_compaction("offloaded")

    sim = Simulator()
    target = StorageTarget(sim, model=NVM2_BENCH,
                           config=KernelConfig(cores=4, seed=3))
    tree = seed_tree(target.kernel.fs)
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=5_000, seed=3))
    client = target.connect(fabric, "compactor")
    plan = tree.plan_compaction(0)
    output_path = tree.reserve_table_path()
    out = {}

    def driver():
        out["result"] = yield from client.compact(
            output_path, plan.input_paths(),
            drop_tombstones=plan.drop_tombstones)

    sim.run_process(driver())
    result = out["result"]
    assert result.emitted == off_report.emitted
    assert result.dropped == off_report.dropped
    assert result.output_entries == off_report.output_entries
    assert result.output_bytes == off_report.output_bytes
    # The whole compaction crossed the network in well under a page.
    assert result.net_bytes < 4096
    assert target.executed["compact"] == 1

    # The client installs the output without re-reading it.
    inode = target.kernel.fs.lookup(output_path)
    table = SsTable(FsBackend(target.kernel.fs, inode))
    tree.apply_compaction(plan, [], output=(output_path, table))
    merged = list(tree.levels[1][0][1].entries())
    assert len(merged) == result.output_entries


# ---------------------------------------------------------------------------
# Concurrent gets degrade gracefully across the unlinks
# ---------------------------------------------------------------------------


def test_concurrent_chain_get_fails_closed_after_compaction():
    sim, kernel, bpf = make_machine()
    tree = seed_tree(kernel.fs)
    path, table = tree.levels[0][0]
    program = index_traversal_program()
    proc = kernel.spawn_process("reader")

    def install():
        fd = yield from kernel.sys_open(proc, path)
        yield from bpf.install(proc, fd, program)
        return fd

    fd = kernel.run_syscall(install())

    engine = CompactionEngine(bpf)
    compactor = engine.spawn()
    # User-mode merge: the compactor opens no chains of its own on the
    # input inodes, so the reader's snapshot stays installed until the
    # unlink fires the unmap hook — the §4 invalidation path.
    kernel.run_syscall(engine.compact_tree(compactor, tree, 0,
                                           mode="user"))
    # The unlink's unmap event invalidated the reader's snapshot.
    assert bpf.cache.invalidations >= 1

    def read_stale():
        result = yield from bpf.read_chain(
            proc, fd, table.root_index_offset, 4096, args=(3,))
        return result

    # Fail closed, never stale: the freed extents reject the submission
    # outright (and had any block survived mapped, the invalidated
    # snapshot would abort the chain with EEXTENT mid-flight).
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(read_stale())
