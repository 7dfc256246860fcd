"""Integration tests for the chain engine (the paper's core mechanism)."""

import struct
from functools import partial

import pytest

from chainutil import (
    END,
    NVM2_EXACT,
    UNKNOWN_ACTION_SRC,
    build_machine,
    install_walker,
    linked_file_bytes,
    walker_program,
)
from repro.core import Hook
from repro.core.chains import ChainEngine, ChainState
from repro.errors import (
    InvalidArgument,
    NotInstalled,
    PowerLossError,
)
from repro.faults import FaultSpec
from repro.kernel import ChainStatus, IoUring, JournalConfig
from repro.obs import ObsSession, SpanCollector, TraceBus, events
from repro.perf import profiling
from simutil import pending, software_ns

ORDER = [3, 5, 0, 7, 2, 6, 1, 4]


def make_list_machine(order=ORDER, **kwargs):
    sim, kernel, bpf = build_machine(**kwargs)
    kernel.create_file("/list", linked_file_bytes(order))
    return sim, kernel, bpf


# ---------------------------------------------------------------------------
# NVMe hook
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vm_mode", ["block", "interp"])
def test_nvme_chain_walks_to_the_end(vm_mode):
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list", vm_mode=vm_mode)

    def workload():
        result = yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.hops == len(ORDER)
    assert result.value == 1000 + ORDER[-1]


def test_nvme_chain_reissues_from_driver_not_bio():
    with ObsSession() as obs:
        sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)

    kernel.run_syscall(workload())
    commands = obs.registry.get("nvme_commands_total")
    assert commands.value(source="bpf-recycle") == len(ORDER) - 1
    assert commands.value(source="bio") == 1


def test_nvme_chain_latency_beats_baseline():
    """The headline claim: chaining at the driver cuts latency ~in half."""
    depth = 10
    order = list(range(depth))
    sim, kernel, bpf = make_list_machine(order)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def chain():
        start = sim.now
        yield from bpf.read_chain(proc, fd, 0, 4096)
        return sim.now - start

    chain_ns = kernel.run_syscall(chain())

    def baseline():
        start = sim.now
        offset = 0
        cost = kernel.cost
        for _hop in range(depth):
            result = yield from kernel.sys_pread(proc, fd, offset, 4096)
            # App-side processing to find the next pointer.
            yield from kernel.cpus.run_thread(cost.user_process_ns)
            offset = int.from_bytes(result.data[0:8], "little")
        return sim.now - start

    baseline_ns = kernel.run_syscall(baseline())
    assert chain_ns < 0.65 * baseline_ns  # at least ~35% faster at depth 10


def test_chain_value_and_buffer_returns():
    # The walker returns a value; also check a buffer-returning program.
    sim, kernel, bpf = make_list_machine([0, 2, 1])
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == 1001
    assert result.data == b""
    assert result.final_offset == 1 * 4096


def test_read_chain_without_install_raises():
    sim, kernel, bpf = make_list_machine()
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.read_chain(proc, fd, 0, 4096)

    with pytest.raises(NotInstalled):
        kernel.run_syscall(workload())


def test_tagged_sys_pread_uses_chain():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from kernel.sys_pread(proc, fd, ORDER[0] * 4096,
                                             4096, tagged=True)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.hops == len(ORDER)


def test_untagged_read_ignores_installation():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from kernel.sys_pread(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.hops == 1  # plain read, no chaining
    assert len(result.data) == 4096


# ---------------------------------------------------------------------------
# Syscall hook
# ---------------------------------------------------------------------------


def test_syscall_hook_chain_completes():
    with ObsSession() as obs:
        sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list", hook=Hook.SYSCALL)

    def workload():
        result = yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.hops == len(ORDER)
    assert result.value == 1000 + ORDER[-1]
    # Syscall-layer reissues still walk the BIO layer -> all commands "bio".
    commands = obs.registry.get("nvme_commands_total")
    assert commands.value(source="bpf-recycle") == 0
    assert commands.value(source="bio") == len(ORDER)


def test_syscall_hook_is_slower_than_nvme_hook():
    depth = 10
    order = list(range(depth))

    def chain_time(hook):
        sim, kernel, bpf = make_list_machine(order)
        proc, fd = install_walker(sim, kernel, bpf, "/list", hook=hook)

        def workload():
            start = sim.now
            yield from bpf.read_chain(proc, fd, 0, 4096)
            return sim.now - start

        return kernel.run_syscall(workload())

    assert chain_time(Hook.NVME) < chain_time(Hook.SYSCALL)


# ---------------------------------------------------------------------------
# Chain limit (fairness bound)
# ---------------------------------------------------------------------------


def test_chain_limit_kills_long_chain():
    order = list(range(20))
    sim, kernel, bpf = make_list_machine(order, max_chain_hops=5)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.CHAIN_LIMIT
    assert result.hops == 5
    # The kill hands back the next offset so the app can continue.
    assert result.final_offset == 5 * 4096
    assert bpf.accounting.chains_killed[proc.pid] == 1


def test_syscall_hook_chain_limit_hands_back_the_continuation():
    # The fairness kill is one piece of code for both hooks: the syscall
    # hook's kill carries the next offset and the scratch too.
    sim, kernel, bpf = make_list_machine(list(range(20)), max_chain_hops=5)
    proc, fd = install_walker(sim, kernel, bpf, "/list", hook=Hook.SYSCALL)
    result = kernel.run_syscall(bpf.read_chain(proc, fd, 0, 4096,
                                               scratch_init=b"s"))
    assert (result.status, result.hops, result.final_offset, result.data) == \
        (ChainStatus.CHAIN_LIMIT, 5, 5 * 4096, b"")
    assert result.scratch.startswith(b"s")
    assert bpf.accounting.chains_killed[proc.pid] == 1


def test_chain_limit_robust_read_continues_in_bounded_chains():
    order = list(range(20))
    sim, kernel, bpf = make_list_machine(order, max_chain_hops=5)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain_robust(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.value == 1000 + order[-1]
    assert result.hops == 20
    # ceil(20 / 5) - 1 = 3 kills before the chain finished.
    assert bpf.accounting.chains_killed[proc.pid] == 3


def test_chain_within_limit_unaffected():
    sim, kernel, bpf = make_list_machine(max_chain_hops=len(ORDER))
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)
        return result

    assert kernel.run_syscall(workload()).ok


def test_accounting_counts_and_drains():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)

    kernel.run_syscall(workload())
    assert bpf.accounting.totals[proc.pid] == len(ORDER) - 1
    drained = bpf.accounting.drain_to_bio()
    assert drained == {proc.pid: len(ORDER) - 1}
    assert pending(bpf.accounting, proc.pid) == 0
    assert bpf.accounting.totals[proc.pid] == len(ORDER) - 1


# ---------------------------------------------------------------------------
# Extent invalidation (EEXTENT)
# ---------------------------------------------------------------------------


def test_unmap_invalidates_and_chain_aborts():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    inode = kernel.fs.lookup("/list")

    def workload():
        # Punch a block after install: the snapshot goes invalid.
        kernel.fs.punch_range(inode, 9 * 4096, 4096)
        result = yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)
        return result

    # Extend the file so punching block 9 doesn't affect the chain's data.
    kernel.fs.write_sync(inode, 9 * 4096, b"\x00" * 4096)

    def install_refresh():
        yield from bpf.refresh(proc, fd)

    kernel.run_syscall(install_refresh())
    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.EXTENT_INVALIDATED
    assert bpf.cache.invalidations >= 1


@pytest.mark.parametrize("crash", [False, True], ids=["unmap", "recovery"])
def test_unmap_invalidates_every_installation_of_the_file(crash):
    # Processes A and B each install the walker on /list, so the file has
    # two snapshots.  The chain's fourth block is punched and its physical
    # block handed to /secret, which holds a forged terminator.  A chain on
    # either snapshot must end EEXTENT: one that survived would recycle
    # into /secret's block and return its payload.  The recovery variant
    # cuts power between the installs and the punch.
    kwargs = {"journal": JournalConfig(journal_blocks=32)} if crash else {}
    sim, kernel, bpf = make_list_machine(**kwargs)
    syncer = kernel.spawn_process("sync")

    def fsync_list():
        fd = yield from kernel.sys_open(syncer, "/list")
        yield from kernel.sys_fsync(syncer, fd)

    if crash:
        kernel.run_syscall(fsync_list())
    first = install_walker(sim, kernel, bpf, "/list")
    second = install_walker(sim, kernel, bpf, "/list")
    if crash:
        kernel.crash()
        kernel.recover()
    fs = kernel.fs
    inode = fs.lookup("/list")
    freed = inode.extents.lookup(ORDER[3])
    fs.punch_range(inode, ORDER[3] * 4096, 4096)
    if crash:
        kernel.run_syscall(fsync_list())  # the freed block rejoins the pool
    kernel.create_file("/secret",
                       struct.pack("<QQ", END, 0xBAD).ljust(4096, b"\0"))
    assert fs.lookup("/secret").extents.lookup(0) == freed
    for proc, fd in (first, second):
        result = kernel.run_syscall(
            bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096))
        assert (result.status, result.value) == \
            (ChainStatus.EXTENT_INVALIDATED, None)


def test_uninstall_keeps_the_other_installations_snapshot():
    # Closing one handle drops only its own snapshot: the other process's
    # snapshot is still invalidated by a later unmap.
    sim, kernel, bpf = make_list_machine()
    first = install_walker(sim, kernel, bpf, "/list")
    second = install_walker(sim, kernel, bpf, "/list")
    kernel.run_syscall(bpf.uninstall(*second))
    inode = kernel.fs.lookup("/list")
    kernel.fs.punch_range(inode, ORDER[3] * 4096, 4096)
    result = kernel.run_syscall(
        bpf.read_chain(*first, ORDER[0] * 4096, 4096))
    assert result.status == ChainStatus.EXTENT_INVALIDATED


def test_robust_read_recovers_from_invalidation():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    inode = kernel.fs.lookup("/list")
    kernel.fs.write_sync(inode, 9 * 4096, b"\x00" * 4096)

    def workload():
        kernel.fs.punch_range(inode, 9 * 4096, 4096)
        result = yield from bpf.read_chain_robust(proc, fd,
                                                  ORDER[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.value == 1000 + ORDER[-1]
    assert bpf.cache.refreshes >= 2  # install + recovery refresh


def test_growth_does_not_invalidate():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    inode = kernel.fs.lookup("/list")

    def workload():
        kernel.fs.write_sync(inode, 100 * 4096, b"\x00" * 4096)  # grow
        result = yield from bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert bpf.cache.invalidations == 0


def test_chain_to_unsnapshotted_offset_misses():
    # Install first, then grow the file and point the list into the new
    # region: the cache snapshot doesn't cover it -> EEXTENT.
    import struct

    order = [0, 1]
    sim, kernel, bpf = make_list_machine(order)
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    inode = kernel.fs.lookup("/list")
    kernel.fs.write_sync(inode, 50 * 4096, b"\x00" * 4096)
    # Rewrite block 0's next pointer to the new block (beyond the snapshot).
    head = bytearray(kernel.fs.read_sync(inode, 0, 4096))
    struct.pack_into("<Q", head, 0, 50 * 4096)
    kernel.fs.write_sync(inode, 0, bytes(head))

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.EXTENT_INVALIDATED
    assert result.final_offset == 50 * 4096


# ---------------------------------------------------------------------------
# Split fallback (granularity mismatch)
# ---------------------------------------------------------------------------


def test_split_chain_falls_back_and_robust_read_completes():
    # Two-block extents with guard gaps: an 8 KiB read spans a discontiguous
    # extent boundary on every other hop, forcing the split fallback.
    order = list(range(11))  # chain terminates at block 10
    sim, kernel, bpf = build_machine(max_extent_blocks=2)
    # Pad with one extra block so the final 8 KiB read is fully mapped.
    kernel.create_file("/list", linked_file_bytes(order) + bytes(4096))
    assert len(kernel.fs.lookup("/list").extents) > 1
    proc, fd = install_walker(sim, kernel, bpf, "/list", block_size=8192)

    def workload():
        result = yield from bpf.read_chain_robust(proc, fd, 0, 8192,
                                                  max_retries=16)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.value == 1000 + order[-1]
    assert bpf.engine.split_fallbacks >= 1


def test_first_hop_split_falls_back_and_recovers():
    order = list(range(11))
    sim, kernel, bpf = build_machine(max_extent_blocks=2)
    kernel.create_file("/list", linked_file_bytes(order) + bytes(4096))
    proc, fd = install_walker(sim, kernel, bpf, "/list", block_size=8192)

    def workload():
        # Offset 4096 + length 8192 spans blocks 1-2, which sit in
        # different extents: the very first hop must fall back.
        result = yield from bpf.read_chain_robust(proc, fd, 4096, 8192,
                                                  max_retries=16)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.value == 1000 + order[-1]


def test_first_hop_split_surfaces_power_loss():
    # A dead device is not a media error: the driver does not retry it, and
    # the split first hop raises instead of returning an EIO result.
    order = list(range(11))
    sim, kernel, bpf = build_machine(max_extent_blocks=2)
    kernel.create_file("/list", linked_file_bytes(order) + bytes(4096))
    proc, fd = install_walker(sim, kernel, bpf, "/list", block_size=8192)

    def cut():
        # The first segment's read is in flight.
        yield sim.timeout(software_ns(kernel.cost) +
                          NVM2_EXACT.read_ns // 2)
        kernel.crash()

    sim.spawn(cut(), name="cut")
    with pytest.raises(PowerLossError):
        kernel.run_syscall(bpf.read_chain(proc, fd, 4096, 8192))


@pytest.mark.parametrize("prior_hops", [0, 3],
                         ids=["uring-first-hop", "mid-chain"])
def test_split_gather_delivers_once(prior_hops):
    # A split chain read is gathered by Kernel.gather and delivered by
    # ChainEngine._finish_split.  The io_uring first hop gathers before any
    # completion step has run (hops == 0); the mid-chain split gathers
    # after ``prior_hops`` of them.
    sim, kernel, bpf = make_list_machine(fault_plan=FaultSpec())
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    file = proc.file(fd)
    contents = linked_file_bytes(ORDER)
    blocks = (5, 0, 3)
    segments = [(file.inode.extents.lookup(block) * 8, 8) for block in blocks]

    def gather(count):
        delivered = []
        state = ChainState(proc, file, file.bpf_install, 8192, 4096,
                           (0, 0, 0, 0), b"abc", delivered.append)
        state.hops = prior_hops
        kernel.run_syscall(kernel.gather(
            segments[:count], kernel.cpus.run_thread,
            partial(ChainEngine._finish_split, state)))
        return delivered, state

    (result,), state = gather(2)
    assert result.status == ChainStatus.SPLIT_FALLBACK
    assert result.data == b"".join(contents[block * 4096:(block + 1) * 4096]
                                   for block in blocks[:2])
    assert (result.hops, result.final_offset) == (prior_hops + 1, 8192)
    assert result.scratch == bytes(state.scratch)
    assert result.scratch.startswith(b"abc")

    kernel.fault_plan.inject(segments[1][0])  # gather does not retry
    (result,), state = gather(3)
    assert result.status == ChainStatus.EIO
    assert (result.data, result.hops, result.final_offset) == \
        (b"", prior_hops + 1, 8192)
    assert state.hops == prior_hops + 1


def test_contiguous_chain_never_falls_back():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain_robust(proc, fd,
                                                  ORDER[0] * 4096, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert bpf.engine.split_fallbacks == 0


# ---------------------------------------------------------------------------
# One interrupt-context process per chain
# ---------------------------------------------------------------------------


def count_spawns(sim):
    """Count the processes ``sim`` spawns, by name."""
    counts = {}
    spawn = sim.spawn

    def counted(generator, name=""):
        counts[name] = counts.get(name, 0) + 1
        return spawn(generator, name)

    sim.spawn = counted
    return counts


def test_deep_chain_runs_in_one_process_with_no_finish_dispatch():
    depth = 6
    with profiling() as prof:
        sim, kernel, bpf = make_list_machine(list(range(depth)))
        proc, fd = install_walker(sim, kernel, bpf, "/list")
        spawns = count_spawns(sim)
        result = kernel.run_syscall(bpf.read_chain(proc, fd, 0, 4096))
    assert result.ok and result.hops == depth
    # One starter for all six hops, and the chain process's finish is not
    # dispatched: the two Process events are the finishes of the drivers
    # that install_walker and run_syscall spawn.
    assert spawns["chain-irq"] == 1
    assert prof.events["Process"] == 2


def test_every_hop_of_one_process_keeps_its_own_span():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    sim, kernel, bpf = build_machine(bus=bus)
    kernel.create_file("/list", linked_file_bytes(ORDER))
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    spawns = count_spawns(sim)
    result = kernel.run_syscall(bpf.read_chain(proc, fd, ORDER[0] * 4096,
                                               4096))
    assert result.hops == len(ORDER)
    assert spawns["chain-irq"] == 1
    root, = spans.find_roots("read_chain")
    hops = [span for span in root.children if span.name == "chain_hop"]
    assert [hop.attrs["hop"] for hop in hops] == \
        list(range(1, len(ORDER) + 1))
    assert all(hop.parent == root.sid and hop.end_ns is not None
               for hop in hops)
    assert [hop.start_ns for hop in hops] == \
        sorted(hop.start_ns for hop in hops)


def watch_chains(kernel):
    """``[state, deliveries]`` of every chain whose completion reaches the
    chain engine."""
    seen = []
    engine = kernel.chains
    handler = engine.handle_completion

    def watched(command):
        state = command.cookie.chain
        if not any(entry[0] is state for entry in seen):
            entry = [state, 0]
            seen.append(entry)
            deliver = state.deliver

            def counted(result):
                entry[1] += 1
                deliver(result)

            state.deliver = counted
        handler(command)

    engine.handle_completion = watched
    return seen


def _resubmitting_chain():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    return kernel, bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)


def _retried_chain():
    sim, kernel, bpf = make_list_machine(fault_plan=FaultSpec(seed=1))
    block = kernel.fs.lookup("/list").extents.lookup(ORDER[2])
    kernel.fault_plan.inject(block * 8, times=2)
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    return kernel, bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)


def _killed_chain():
    sim, kernel, bpf = make_list_machine(list(range(20)), max_chain_hops=5)
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    return kernel, bpf.read_chain(proc, fd, 0, 4096)


def _aborted_chain():
    # Block 1 points past the extent snapshot: the second hop misses.
    import struct

    sim, kernel, bpf = make_list_machine([0, 1, 2])
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    inode = kernel.fs.lookup("/list")
    kernel.fs.write_sync(inode, 50 * 4096, bytes(4096))
    block = bytearray(kernel.fs.read_sync(inode, 4096, 4096))
    struct.pack_into("<Q", block, 0, 50 * 4096)
    kernel.fs.write_sync(inode, 4096, bytes(block))
    return kernel, bpf.read_chain(proc, fd, 0, 4096)


def _split_chain():
    sim, kernel, bpf = build_machine(max_extent_blocks=2)
    kernel.create_file("/list", linked_file_bytes(list(range(11)))
                       + bytes(4096))
    proc, fd = install_walker(sim, kernel, bpf, "/list", block_size=8192)
    return kernel, bpf.read_chain(proc, fd, 0, 8192)


def _unknown_action_chain():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list",
                              source=UNKNOWN_ACTION_SRC)
    return kernel, bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)


def _power_cut_chain(fault_plan, before_repost):
    """A chain whose device loses power at the third hop: while that hop's
    read is in service, or between its completion and the program's
    recycle."""
    sim, kernel, bpf = make_list_machine(fault_plan=fault_plan)
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    device = kernel.device
    seen = []
    if before_repost:
        complete = device.completion_handler

        def cut(command):
            seen.append(command)
            if len(seen) == 3:
                kernel.crash()
            complete(command)

        device.completion_handler = cut
    else:
        submit = device.submit

        def cut(command):
            submit(command)
            seen.append(command)
            if len(seen) == 3:
                kernel.crash()

        device.submit = cut
    return kernel, bpf.read_chain(proc, fd, ORDER[0] * 4096, 4096)


@pytest.mark.parametrize("scenario,status,hops,source", [
    (_resubmitting_chain, ChainStatus.OK, len(ORDER), "bpf-recycle"),
    (_retried_chain, ChainStatus.OK, len(ORDER) + 2, "chain-retry"),
    (_killed_chain, ChainStatus.CHAIN_LIMIT, 5, "bpf-recycle"),
    (_aborted_chain, ChainStatus.EXTENT_INVALIDATED, 2, "bpf-recycle"),
    (_split_chain, ChainStatus.SPLIT_FALLBACK, 2, None),
    (_unknown_action_chain, ChainStatus.EINVAL, len(ORDER), "bpf-recycle"),
    (partial(_power_cut_chain, None, False), ChainStatus.EIO, 3,
     "bpf-recycle"),
    (partial(_power_cut_chain, None, True), ChainStatus.EIO, 3,
     "bpf-recycle"),
    (partial(_power_cut_chain, FaultSpec(seed=1), False), ChainStatus.EIO,
     3, "bpf-recycle"),
    (partial(_power_cut_chain, FaultSpec(seed=1), True), ChainStatus.EIO, 3,
     "bpf-recycle"),
], ids=["resubmit", "fault-retry", "chain-limit", "extent-abort",
        "split-fallback", "unknown-action", "power-cut-in-service",
        "power-cut-before-repost", "power-cut-in-service-idle-plan",
        "power-cut-before-repost-idle-plan"])
def test_every_chain_ending_delivers_once_and_leaves_no_wake(
        scenario, status, hops, source):
    with ObsSession() as obs:
        kernel, chain = scenario()
    chains = watch_chains(kernel)
    spawns = count_spawns(kernel.sim)
    result = kernel.run_syscall(chain)
    assert (result.status, result.hops) == (status, hops)
    if source is not None:
        assert obs.registry.get("nvme_commands_total").value(
            source=source) >= 1
    (state, deliveries), = chains
    assert deliveries == 1 and state.done
    assert state.wake is None
    assert spawns["chain-irq"] == 1


@pytest.mark.parametrize("fault_plan", [None, FaultSpec(seed=1)],
                         ids=["no-plan", "idle-plan"])
def test_a_power_cut_anywhere_in_a_chain_ends_the_read(fault_plan):
    # Cut instants spread over a 6-hop chain up to its last completion.
    # A cut before the first submission raises in the reading thread;
    # every other ends the read EIO.  None raises out of the simulator
    # from the chain's interrupt context.
    def world(bus=None):
        sim, kernel, bpf = make_list_machine(list(range(6)),
                                             fault_plan=fault_plan, bus=bus)
        proc, fd = install_walker(sim, kernel, bpf, "/list")
        return sim, kernel, bpf.read_chain(proc, fd, 0, 4096)

    def reader(chain):
        try:
            return (yield from chain).status
        except PowerLossError:
            return "PowerLossError"

    bus = TraceBus(enabled=True)
    completions = []
    bus.subscribe(lambda e: completions.append(e.ts), events.NVME_COMPLETE)
    sim, kernel, chain = world(bus)
    start = sim.now
    assert kernel.run_syscall(reader(chain)) == ChainStatus.OK
    window = completions[-1] - start
    outcomes = set()
    for index in range(64):
        sim, kernel, chain = world()

        def cut(at=index * window // 64, kernel=kernel):
            yield kernel.sim.timeout(at)
            kernel.crash()

        sim.spawn(cut(), name="cut")
        outcomes.add(kernel.run_syscall(reader(chain)))
    assert outcomes == {ChainStatus.EIO, "PowerLossError"}


@pytest.mark.parametrize("hook", [Hook.NVME, Hook.SYSCALL])
def test_unknown_action_ends_the_chain_einval(hook):
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list", hook=hook,
                              source=UNKNOWN_ACTION_SRC)
    result = kernel.run_syscall(bpf.read_chain(proc, fd, ORDER[0] * 4096,
                                               4096))
    assert (result.status, result.hops, result.data, result.value) == \
        (ChainStatus.EINVAL, len(ORDER), b"", None)
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(bpf.read_chain_robust(proc, fd, ORDER[0] * 4096,
                                                 4096))


def test_unknown_action_in_the_user_space_step_ends_einval():
    sim, kernel, bpf = build_machine(max_extent_blocks=2)
    kernel.create_file("/list", linked_file_bytes([0, 1]) + bytes(4096))
    proc, fd = install_walker(sim, kernel, bpf, "/list", block_size=8192,
                              source=UNKNOWN_ACTION_SRC)
    # Blocks 1-2 sit in different extents, so the first hop falls back,
    # and block 1 ends the list: the application's own run of the program
    # reads the undefined action.
    split = kernel.run_syscall(bpf.read_chain(proc, fd, 4096, 8192))
    assert split.status == ChainStatus.SPLIT_FALLBACK
    next_offset, final, _scratch = kernel.run_syscall(
        bpf._user_space_step(proc, fd, split, ()))
    assert next_offset is None
    assert (final.status, final.final_offset) == (ChainStatus.EINVAL, 4096)
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(bpf.read_chain_robust(proc, fd, 4096, 8192))


# ---------------------------------------------------------------------------
# io_uring chains
# ---------------------------------------------------------------------------


def test_iouring_tagged_chains_complete():
    with ObsSession() as obs:
        sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        ring = IoUring(kernel, proc)
        for index in range(4):
            ring.prep_read(fd, ORDER[0] * 4096, 4096, user_data=index,
                           tagged=True)
        cqes = yield from ring.enter(wait_nr=4)
        return cqes

    cqes = kernel.run_syscall(workload())
    assert len(cqes) == 4
    for cqe in cqes:
        assert cqe.result.ok
        assert cqe.result.value == 1000 + ORDER[-1]
    # 4 chains x (depth-1) recycles.
    assert obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle") == 4 * (len(ORDER) - 1)


def test_iouring_untagged_sqes_unaffected_by_installation():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 0, 4096, user_data="plain")
        cqes = yield from ring.enter(wait_nr=1)
        return cqes

    cqes = kernel.run_syscall(workload())
    assert cqes[0].result.hops == 1
    assert len(cqes[0].result.data) == 4096


def test_iouring_sqe_tagged_for_the_syscall_hook_is_einval():
    # io_uring has no dispatch loop to run the syscall hook in.
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list", hook=Hook.SYSCALL)
    completed = kernel.device.completed

    def workload():
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, ORDER[0] * 4096, 4096, user_data="tagged",
                       tagged=True)
        return (yield from ring.enter(wait_nr=1))

    (cqe,) = kernel.run_syscall(workload())
    assert (cqe.user_data, cqe.result.status, cqe.result.data) == \
        ("tagged", ChainStatus.EINVAL, b"")
    assert kernel.device.completed == completed  # no device I/O


# ---------------------------------------------------------------------------
# Uninstall / refresh ioctls
# ---------------------------------------------------------------------------


def test_uninstall_restores_plain_reads():
    sim, kernel, bpf = make_list_machine()
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        yield from bpf.uninstall(proc, fd)
        result = yield from kernel.sys_pread(proc, fd, 0, 4096, tagged=True)
        return result

    result = kernel.run_syscall(workload())
    assert result.hops == 1  # tag ignored without an installation
    assert proc.file(fd).bpf_install is None
