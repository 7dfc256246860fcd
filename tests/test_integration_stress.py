"""Cross-module stress tests: concurrency, churn, and global invariants."""

import pytest

from chainutil import build_machine
from repro.bench.runner import BtreeBench
from repro.core import Hook
from repro.obs import ObsSession
from repro.structures.pages import PAGE_SIZE


def test_concurrent_chains_under_extent_churn_stay_correct():
    """Six chain threads race an extent-churn injector; every lookup must
    return the right value, and the accounting must balance the trace."""
    bench = BtreeBench(4, seed=21)
    kernel = bench.kernel
    sim = bench.sim
    fs = kernel.fs
    inode = fs.lookup("/index")
    # Sacrificial appendix block the injector punches (tree data intact).
    appendix = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
    fs.write_sync(inode, appendix, b"\x00" * PAGE_SIZE)

    stop_at = 4_000_000
    lookups = []

    def injector():
        while sim.now < stop_at:
            yield sim.timeout(300_000)
            fs.punch_range(inode, appendix, PAGE_SIZE)
            fs.write_sync(inode, appendix, b"\x00" * PAGE_SIZE)

    def worker(index):
        proc = kernel.spawn_process(f"w{index}")
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bench.bpf.install(proc, fd, bench.program,
                                     hook=Hook.NVME)
        next_key = bench._key_stream(index)
        root = bench.tree.meta.root_offset
        while sim.now < stop_at:
            key = next_key()
            result = yield from bench.bpf.read_chain_robust(
                proc, fd, root, PAGE_SIZE, args=(key,), max_retries=32)
            lookups.append((key, result.value, result.value2))

    sim.spawn(injector(), name="churn")
    for index in range(6):
        sim.spawn(worker(index), name=f"worker-{index}")
    sim.run(until=stop_at)

    assert len(lookups) > 100
    reference = dict(zip(bench.keys, range(len(bench.keys))))
    for key, value, found in lookups:
        assert found == 1, f"key {key} reported missing"
        assert value == reference[key]
    # Churn really happened and was survived.
    assert bench.bpf.cache.invalidations > 3
    assert bench.bpf.engine.extent_aborts > 0


def test_accounting_matches_device_trace():
    """Total charged resubmissions == recycled commands the device saw
    (``nvme_commands_total{source="bpf-recycle"}`` on the bus)."""
    with ObsSession() as obs:
        bench = BtreeBench(5, seed=22)
    sim = bench.sim
    stop_at = 3_000_000

    def worker(index):
        kernel = bench.kernel
        proc = kernel.spawn_process(f"w{index}")
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bench.bpf.install(proc, fd, bench.program,
                                     hook=Hook.NVME)
        next_key = bench._key_stream(index)
        root = bench.tree.meta.root_offset
        while sim.now < stop_at:
            yield from bench.bpf.read_chain(proc, fd, root, PAGE_SIZE,
                                            args=(next_key(),))

    for index in range(4):
        sim.spawn(worker(index), name=f"worker-{index}")
    sim.run(until=stop_at)
    sim.run()  # drain in-flight chains so submit/complete counts align

    charged = sum(bench.bpf.accounting.totals.values())
    recycled = obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle")
    assert charged == recycled > 0


def test_simulation_is_bit_for_bit_reproducible():
    """The same seed yields the same timeline, counts, and totals."""

    def run_once():
        bench = BtreeBench(4, seed=33)
        sim = bench.sim
        stop_at = 2_000_000
        finished = []

        def worker(index):
            kernel = bench.kernel
            proc = kernel.spawn_process(f"w{index}")
            fd = yield from kernel.sys_open(proc, "/index")
            yield from bench.bpf.install(proc, fd, bench.program,
                                         hook=Hook.NVME)
            next_key = bench._key_stream(index)
            root = bench.tree.meta.root_offset
            while sim.now < stop_at:
                result = yield from bench.bpf.read_chain(
                    proc, fd, root, PAGE_SIZE, args=(next_key(),))
                finished.append((sim.now, result.value))

        for index in range(3):
            sim.spawn(worker(index), name=f"w{index}")
        sim.run(until=stop_at)
        return finished, dict(bench.bpf.accounting.totals)

    first = run_once()
    second = run_once()
    assert first == second


def test_mixed_hooks_and_plain_readers_coexist():
    """NVMe chains, syscall chains, and plain readers share one machine."""
    sim, kernel, bpf = build_machine()
    from chainutil import linked_file_bytes, walker_program

    order = list(range(6))
    kernel.create_file("/list", linked_file_bytes(order))
    kernel.create_file("/plain", bytes(1 << 16))
    program_nvme = walker_program(bpf)
    program_sys = walker_program(bpf)
    stop_at = 2_000_000
    counts = {"nvme": 0, "syscall": 0, "plain": 0}

    def chain_worker(tag, hook, program):
        proc = kernel.spawn_process(tag)
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.install(proc, fd, program, hook=hook)
        while sim.now < stop_at:
            result = yield from bpf.read_chain(proc, fd, 0, 4096)
            assert result.value == 1000 + order[-1]
            counts[tag] += 1

    def plain_worker():
        proc = kernel.spawn_process("plain")
        fd = yield from kernel.sys_open(proc, "/plain")
        offset = 0
        while sim.now < stop_at:
            result = yield from kernel.sys_pread(proc, fd, offset, 512)
            assert len(result.data) == 512
            offset = (offset + 512) % (1 << 16)
            counts["plain"] += 1

    sim.spawn(chain_worker("nvme", Hook.NVME, program_nvme))
    sim.spawn(chain_worker("syscall", Hook.SYSCALL, program_sys))
    sim.spawn(plain_worker())
    sim.run(until=stop_at)

    assert all(count > 10 for count in counts.values()), counts
    # NVMe chains complete faster than syscall chains on the same machine.
    assert counts["nvme"] > counts["syscall"]
