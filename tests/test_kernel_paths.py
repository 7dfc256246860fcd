"""Tests for the kernel read/write data paths, costs, and io_uring."""

import pytest

from repro.device import LatencyModel
from repro.errors import BadFileDescriptor, InvalidArgument
from repro.kernel import CostModel, IoUring, Kernel, KernelConfig
from repro.obs import TraceBus, events
from repro.sim import Simulator

# A deterministic gen-2 Optane: Table 1 device latency, no jitter.
NVM2_EXACT = LatencyModel("nvm2-exact", read_ns=3224, write_ns=3600,
                          parallelism=8, jitter=0.0)
SLOW_EXACT = LatencyModel("slow-exact", read_ns=80_000, write_ns=80_000,
                          parallelism=8, jitter=0.0)


def make_kernel(model=NVM2_EXACT, **config_kwargs):
    sim = Simulator()
    kernel = Kernel(sim, model, KernelConfig(**config_kwargs))
    return sim, kernel


def test_table1_read_latency_exact():
    """A 512 B random read costs exactly the Table 1 total (6272 ns)."""
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(8192))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        start = sim.now
        result = yield from kernel.sys_pread(proc, fd, 512, 512)
        elapsed = sim.now - start
        return result, elapsed

    result, elapsed = kernel.run_syscall(workload())
    assert result.ok
    assert elapsed == CostModel().software_total_ns() + 3224 == 6272


def test_read_returns_correct_bytes():
    sim, kernel = make_kernel()
    payload = bytes(range(256)) * 16  # 4096 bytes
    kernel.create_file("/f", payload)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        result = yield from kernel.sys_pread(proc, fd, 1024, 512)
        return result

    result = kernel.run_syscall(workload())
    assert result.data == payload[1024:1536]


def test_fast_device_polls_slow_device_blocks():
    _, fast_kernel = make_kernel(NVM2_EXACT)
    _, slow_kernel = make_kernel(SLOW_EXACT)
    assert fast_kernel.should_poll()
    assert not slow_kernel.should_poll()


def test_polling_read_holds_core_for_device_time():
    sim, kernel = make_kernel(cores=1)
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pread(proc, fd, 0, 512)

    kernel.run_syscall(workload())
    # The open syscall + the whole read are CPU-held in poll mode.
    expected = (550  # open
                + CostModel().software_total_ns() + 3224)
    assert kernel.cpus.busy_time() == expected


def test_blocking_read_releases_core_during_device_time():
    sim, kernel = make_kernel(SLOW_EXACT, cores=1)
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pread(proc, fd, 0, 512)

    kernel.run_syscall(workload())
    cost = CostModel()
    expected = (550
                + cost.software_total_ns()
                + cost.irq_entry_ns
                + cost.context_switch_ns)
    assert kernel.cpus.busy_time() == expected
    assert kernel.irq_count == 1


def test_poll_mode_six_threads_saturate_six_cores():
    """Closed-loop sync readers scale with threads up to the core count."""

    def lookups_per_sec(threads):
        sim, kernel = make_kernel(cores=6)
        kernel.create_file("/f", bytes(1 << 20))
        finished = [0]
        duration = 3_000_000  # 3 ms

        def reader(proc, fd):
            while sim.now < duration:
                yield from kernel.sys_pread(proc, fd, 0, 512)
                finished[0] += 1

        def spawn_all():
            for index in range(threads):
                proc = kernel.spawn_process(f"t{index}")
                fd = yield from kernel.sys_open(proc, "/f")
                sim.spawn(reader(proc, fd))
            return 0

        sim.run_process(spawn_all(), until=duration)
        sim.run(until=duration)
        return finished[0]

    one = lookups_per_sec(1)
    six = lookups_per_sec(6)
    twelve = lookups_per_sec(12)
    assert six > one * 5  # near-linear scaling to the core count
    assert twelve < six * 1.1  # saturated beyond it


def test_fragmented_file_read_issues_multiple_commands():
    bus = TraceBus(enabled=True)
    opcodes = []
    bus.subscribe(lambda e: opcodes.append(e.get("opcode")),
                  events.NVME_COMPLETE)
    sim, kernel = make_kernel(max_extent_blocks=1, bus=bus)
    kernel.create_file("/f", b"z" * (4 * 4096))
    assert kernel.fs.fragmentation_of(kernel.fs.lookup("/f")) == 4
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        result = yield from kernel.sys_pread(proc, fd, 0, 4 * 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.data == b"z" * (4 * 4096)
    assert opcodes.count("read") == 4


def test_write_path_persists_and_charges():
    sim, kernel = make_kernel()
    kernel.create_file("/f", b"")
    proc = kernel.spawn_process()
    payload = b"w" * 1024

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        written = yield from kernel.sys_pwrite(proc, fd, 0, payload)
        return written

    written = kernel.run_syscall(workload())
    assert written == 1024
    inode = kernel.fs.lookup("/f")
    assert kernel.fs.read_sync(inode, 0, 1024) == payload
    assert inode.size == 1024


@pytest.mark.parametrize("cache_depth", [0, 8])
def test_write_does_not_alias_the_callers_buffer(cache_depth):
    """Reusing the buffer after ``sys_pwrite`` returns must not change
    what was written, whether it sits in the write cache or on media."""
    sim, kernel = make_kernel(write_cache_depth=cache_depth)
    kernel.create_file("/f", b"")
    proc = kernel.spawn_process()
    buf = bytearray(b"A" * 512)

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pwrite(proc, fd, 0, memoryview(buf))
        buf[:] = b"B" * 512
        result = yield from kernel.sys_pread(proc, fd, 0, 512)
        return result

    assert kernel.run_syscall(workload()).data == b"A" * 512


def test_open_missing_file_raises():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process()

    def workload():
        yield from kernel.sys_open(proc, "/missing")

    from repro.errors import FileNotFound

    with pytest.raises(FileNotFound):
        kernel.run_syscall(workload())


def test_open_create_flag():
    sim, kernel = make_kernel()
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/new", create=True)
        return fd

    fd = kernel.run_syscall(workload())
    assert kernel.fs.exists("/new")
    assert proc.file(fd).path == "/new"


def test_close_invalidates_fd():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(512))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_close(proc, fd)
        return fd

    fd = kernel.run_syscall(workload())
    with pytest.raises(BadFileDescriptor):
        proc.file(fd)


def test_unknown_ioctl_rejected():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(512))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_ioctl(proc, fd, 0xBEEF)

    with pytest.raises(InvalidArgument):
        kernel.run_syscall(workload())


def test_ioctl_dispatches_to_registered_handler():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(512))
    proc = kernel.spawn_process()
    seen = []

    def handler(handler_proc, file, arg):
        seen.append((handler_proc, file.path, arg))
        yield sim.timeout(0)
        return 123

    kernel.ioctl_handlers[0x42] = handler

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        result = yield from kernel.sys_ioctl(proc, fd, 0x42, "hello")
        return result

    assert kernel.run_syscall(workload()) == 123
    assert seen == [(proc, "/f", "hello")]


def test_ftruncate_shrinks():
    sim, kernel = make_kernel()
    kernel.create_file("/f", b"x" * 8192)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_ftruncate(proc, fd, 4096)

    kernel.run_syscall(workload())
    assert kernel.fs.lookup("/f").size == 4096


# ---------------------------------------------------------------------------
# io_uring
# ---------------------------------------------------------------------------


def test_iouring_single_read():
    sim, kernel = make_kernel()
    payload = bytes(range(256)) * 16
    kernel.create_file("/f", payload)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 512, 512, user_data="tag")
        cqes = yield from ring.enter(wait_nr=1)
        return cqes

    cqes = kernel.run_syscall(workload())
    assert len(cqes) == 1
    assert cqes[0].user_data == "tag"
    assert cqes[0].result.data == payload[512:1024]


def test_iouring_batch_completes_all():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(64 * 1024))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc)
        for index in range(8):
            ring.prep_read(fd, index * 512, 512, user_data=index)
        cqes = yield from ring.enter(wait_nr=8)
        return cqes

    cqes = kernel.run_syscall(workload())
    assert sorted(cqe.user_data for cqe in cqes) == list(range(8))


def test_iouring_batching_amortises_crossings():
    """Per-I/O cost falls as the batch grows (the point of io_uring)."""

    def batch_time(batch):
        sim, kernel = make_kernel()
        kernel.create_file("/f", bytes(1 << 20))
        proc = kernel.spawn_process()

        def workload():
            fd = yield from kernel.sys_open(proc, "/f")
            ring = IoUring(kernel, proc)
            start = sim.now
            for index in range(batch):
                ring.prep_read(fd, index * 4096, 512, user_data=index)
            yield from ring.enter(wait_nr=batch)
            return sim.now - start

        return kernel.run_syscall(workload())

    assert batch_time(8) / 8 < batch_time(1)


def test_iouring_wait_more_than_outstanding_rejected():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 0, 512)
        yield from ring.enter(wait_nr=2)

    from repro.errors import IoError

    with pytest.raises(IoError):
        kernel.run_syscall(workload())


def test_iouring_queue_depth_enforced():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc, queue_depth=2)
        ring.prep_read(fd, 0, 512)
        ring.prep_read(fd, 512, 512)
        with pytest.raises(InvalidArgument):
            ring.prep_read(fd, 1024, 512)
        yield from ring.enter(wait_nr=2)

    kernel.run_syscall(workload())


def test_iouring_enter_without_wait_returns_immediately():
    sim, kernel = make_kernel()
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 0, 512)
        first = yield from ring.enter(wait_nr=0)
        # Give the completion time to land, then reap.
        yield sim.timeout(1_000_000)
        second = yield from ring.enter(wait_nr=1)
        return first, second

    first, second = kernel.run_syscall(workload())
    assert first == []
    assert len(second) == 1
