"""Media errors past the driver's retry budget: every read and write path
must surface them.

Failures come only from the fault plan: ``plan.inject`` opens an episode
keyed by the command's start LBA.  The driver retries a failed command
``NVME_MAX_RETRIES`` times, so an episode one longer than that fails the
call for good.
"""

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.errors import IoError
from repro.faults import FaultSpec
from repro.kernel import ChainStatus, IoUring
from repro.kernel.kernel import NVME_MAX_RETRIES

ORDER = [0, 1, 2, 3]

#: Failures in an episode that outlasts every attempt the driver makes.
PAST_BUDGET = NVME_MAX_RETRIES + 1


def make_machine_with_error(fail_block=2, times=PAST_BUDGET):
    sim, kernel, bpf = build_machine(fault_plan=FaultSpec())
    kernel.create_file("/list", linked_file_bytes(ORDER))
    inode = kernel.fs.lookup("/list")
    kernel.fault_plan.inject(inode.extents.lookup(fail_block) * 8,
                             times=times)
    return sim, kernel, bpf


def test_sync_read_raises_on_media_error():
    sim, kernel, bpf = make_machine_with_error()
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)

    with pytest.raises(IoError, match="failed after 5 attempts"):
        kernel.run_syscall(workload())


def test_sync_read_of_healthy_block_unaffected():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        result = yield from kernel.sys_pread(proc, fd, 0, 512)
        return result

    assert kernel.run_syscall(workload()).ok


def test_blocking_read_raises_on_media_error():
    from repro.device import LatencyModel
    from repro.kernel import Kernel, KernelConfig
    from repro.sim import Simulator
    from repro.core import StorageBpf

    slow = LatencyModel("slow", read_ns=80_000, write_ns=80_000,
                        parallelism=4, jitter=0.0)
    sim = Simulator()
    kernel = Kernel(sim, slow, KernelConfig(fault_plan=FaultSpec()))
    StorageBpf(kernel)
    kernel.create_file("/f", bytes(8192))
    inode = kernel.fs.lookup("/f")
    kernel.fault_plan.inject(inode.extents.lookup(0) * 8, times=PAST_BUDGET)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pread(proc, fd, 0, 512)

    with pytest.raises(IoError, match="failed after 5 attempts"):
        kernel.run_syscall(workload())


def test_write_raises_on_media_error():
    sim, kernel, bpf = build_machine(fault_plan=FaultSpec())
    kernel.create_file("/f", bytes(4096))
    inode = kernel.fs.lookup("/f")
    kernel.fault_plan.inject(inode.extents.lookup(0) * 8, times=PAST_BUDGET,
                             opcode="write")
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pwrite(proc, fd, 0, b"x" * 512)

    with pytest.raises(IoError, match="failed after 5 attempts"):
        kernel.run_syscall(workload())


def test_robust_read_raises_on_eio():
    # Every chain ends FAULT_FALLBACK at the faulted hop; the robust reader
    # gives up with an IoError once its restarts are spent.
    sim, kernel, bpf = make_machine_with_error(fail_block=2, times=10 ** 6)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        yield from bpf.read_chain_robust(proc, fd, 0, 4096)

    with pytest.raises(IoError, match="did not recover from injected faults"):
        kernel.run_syscall(workload())
    assert bpf.engine.fault_fallbacks == 8  # read_chain_robust's default


def test_iouring_posts_eio_cqe():
    # A plain SQE is gathered without retries: one failure is its EIO.
    sim, kernel, bpf = make_machine_with_error(fail_block=2, times=1)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 2 * 4096, 512, user_data="bad")
        ring.prep_read(fd, 0, 512, user_data="good")
        cqes = yield from ring.enter(wait_nr=2)
        return cqes

    cqes = kernel.run_syscall(workload())
    by_tag = {cqe.user_data: cqe.result for cqe in cqes}
    assert by_tag["bad"].status == ChainStatus.EIO
    assert by_tag["good"].ok
    assert kernel.nvme_retries == 0


def test_episode_ends_and_next_read_succeeds():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
    proc = kernel.spawn_process()

    def failing():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)

    with pytest.raises(IoError):
        kernel.run_syscall(failing())

    def healthy():
        fd = yield from kernel.sys_open(proc, "/list")
        result = yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)
        return result

    assert kernel.run_syscall(healthy()).ok
    assert kernel.device.media_errors == PAST_BUDGET
