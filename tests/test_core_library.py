"""End-to-end tests of the prebuilt BPF programs over real structures."""

import pytest

from chainutil import build_machine
from repro.core import Hook
from repro.core.library import (
    index_traversal_program,
    linked_list_program,
    scan_aggregate_program,
)
from repro.obs import ObsSession
from repro.structures import BTree, FsBackend, SsTable
from repro.structures.pages import PAGE_SIZE


def build_btree_machine(num_keys=200, fanout=4, stride=3):
    sim, kernel, bpf = build_machine()
    inode = kernel.fs.create("/index")
    items = [(i * stride + 1, i * 100 + 7) for i in range(num_keys)]
    tree = BTree.build(FsBackend(kernel.fs, inode), items, fanout=fanout)
    return sim, kernel, bpf, tree, dict(items)


def install_index_program(kernel, bpf, path, fanout, hook=Hook.NVME):
    program = index_traversal_program(fanout=fanout)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def setup():
        fd = yield from kernel.sys_open(proc, path)
        yield from bpf.install(proc, fd, program, hook=hook)
        return fd

    fd = kernel.run_syscall(setup())
    return proc, fd


def chain_lookup(kernel, bpf, proc, fd, root_offset, key):
    def workload():
        result = yield from bpf.read_chain_robust(
            proc, fd, root_offset, PAGE_SIZE, args=(key,))
        return result

    return kernel.run_syscall(workload())


# ---------------------------------------------------------------------------
# B-tree traversal
# ---------------------------------------------------------------------------


def test_btree_chain_lookup_finds_all_keys():
    sim, kernel, bpf, tree, reference = build_btree_machine()
    proc, fd = install_index_program(kernel, bpf, "/index", tree.meta.fanout)
    for key, value in list(reference.items())[::17]:
        result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset,
                              key)
        assert result.value2 == 1, f"key {key} not found"
        assert result.value == value
        assert result.hops == tree.depth


def test_btree_chain_lookup_missing_key():
    sim, kernel, bpf, tree, reference = build_btree_machine()
    proc, fd = install_index_program(kernel, bpf, "/index", tree.meta.fanout)
    for probe in (0, 2, 10**9):
        result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset,
                              probe)
        assert result.value2 == 0
        assert tree.lookup(probe) is None


def test_btree_chain_depth_matches_tree_depth():
    for depth in (1, 2, 3, 4):
        num_keys = BTree.keys_for_depth(depth, fanout=4)
        sim, kernel, bpf, tree, reference = build_btree_machine(
            num_keys=num_keys, fanout=4, stride=1)
        assert tree.depth == depth
        proc, fd = install_index_program(kernel, bpf, "/index", 4)
        key = next(iter(reference))
        result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset,
                              key)
        assert result.hops == depth
        assert result.value == reference[key]


def test_btree_syscall_hook_lookup():
    sim, kernel, bpf, tree, reference = build_btree_machine()
    proc, fd = install_index_program(kernel, bpf, "/index", tree.meta.fanout,
                                     hook=Hook.SYSCALL)
    key, value = next(iter(reference.items()))
    result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset, key)
    assert (result.value, result.value2) == (value, 1)


def test_btree_chain_agrees_with_python_lookup_everywhere():
    sim, kernel, bpf, tree, reference = build_btree_machine(num_keys=120,
                                                            fanout=8)
    proc, fd = install_index_program(kernel, bpf, "/index", 8)
    probes = sorted(reference)[::7] + [0, 5, 10**12]
    for probe in probes:
        result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset,
                              probe)
        expected = tree.lookup(probe)
        if expected is None:
            assert result.value2 == 0
        else:
            assert (result.value, result.value2) == (expected, 1)


def test_btree_chain_with_large_fanout():
    sim, kernel, bpf, tree, reference = build_btree_machine(num_keys=1000,
                                                            fanout=255)
    assert tree.depth == 2
    proc, fd = install_index_program(kernel, bpf, "/index", 255)
    key, value = list(reference.items())[531]
    result = chain_lookup(kernel, bpf, proc, fd, tree.meta.root_offset, key)
    assert (result.value, result.value2, result.hops) == (value, 1, 2)


# ---------------------------------------------------------------------------
# SSTable traversal (same program, different structure)
# ---------------------------------------------------------------------------


def test_sstable_chain_get():
    sim, kernel, bpf = build_machine()
    inode = kernel.fs.create("/sst")
    items = [(i * 2, i + 5000) for i in range(2000)]
    table = SsTable.build(FsBackend(kernel.fs, inode), items)
    proc, fd = install_index_program(kernel, bpf, "/sst", 255)
    for key, value in items[::191]:
        result = chain_lookup(kernel, bpf, proc, fd,
                              table.root_index_offset, key)
        assert (result.value, result.value2) == (value, 1)
        assert result.hops == 3  # root index -> index -> data
    result = chain_lookup(kernel, bpf, proc, fd, table.root_index_offset, 3)
    assert result.value2 == 0  # odd keys absent


# ---------------------------------------------------------------------------
# Scan/aggregate pushdown
# ---------------------------------------------------------------------------


def test_scan_aggregate_counts_and_sums():
    with ObsSession() as obs:
        sim, kernel, bpf = build_machine()
    from repro.structures.pages import BTREE_PAGE_MAGIC, encode_page

    # Lay out 8 consecutive data pages of 100 entries each.
    pages = []
    expected_count = 0
    expected_sum = 0
    low, high = 250, 750
    key = 0
    for _page in range(8):
        entries = []
        for _entry in range(100):
            value = key * 3
            entries.append((key, value))
            if low <= key <= high:
                expected_count += 1
                expected_sum += value
            key += 1
        pages.append(encode_page(BTREE_PAGE_MAGIC, 0, entries))
    kernel.create_file("/table", b"".join(pages))

    program = scan_aggregate_program(fanout=128)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/table")
        yield from bpf.install(proc, fd, program, args=(low, high, 8))
        result = yield from bpf.read_chain(proc, fd, 0, PAGE_SIZE)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.hops == 8
    assert result.value == expected_sum
    assert result.value2 == expected_count
    # 7 of the 8 pages were fetched by recycled descriptors.
    assert obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle") == 7


def test_scan_aggregate_single_page():
    sim, kernel, bpf = build_machine()
    from repro.structures.pages import BTREE_PAGE_MAGIC, encode_page

    entries = [(i, i) for i in range(50)]
    kernel.create_file("/table", encode_page(BTREE_PAGE_MAGIC, 0, entries))
    program = scan_aggregate_program(fanout=64)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/table")
        yield from bpf.install(proc, fd, program, args=(0, 9, 1))
        result = yield from bpf.read_chain(proc, fd, 0, PAGE_SIZE)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == sum(range(10))
    assert result.value2 == 10
    assert result.hops == 1


# ---------------------------------------------------------------------------
# Linked list program (library version of the test walker)
# ---------------------------------------------------------------------------


def test_linked_list_program_walks():
    from chainutil import linked_file_bytes

    sim, kernel, bpf = build_machine()
    order = [2, 0, 4, 1, 3]
    kernel.create_file("/list", linked_file_bytes(order))
    program = linked_list_program()
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.install(proc, fd, program)
        result = yield from bpf.read_chain(proc, fd, order[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == 1000 + order[-1]
    assert result.value2 == 1
    assert result.hops == len(order)
