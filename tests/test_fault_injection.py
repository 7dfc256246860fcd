"""Media-error injection: every read path must surface device failures."""

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.errors import IoError
from repro.kernel import ChainStatus, IoUring

ORDER = [0, 1, 2, 3]


def make_machine_with_error(fail_block=2):
    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes(ORDER))
    inode = kernel.fs.lookup("/list")
    phys = inode.extents.lookup(fail_block)
    kernel.device.inject_media_error(phys * 8, 8)
    return sim, kernel, bpf


def test_sync_read_raises_on_media_error():
    sim, kernel, bpf = make_machine_with_error()
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)

    with pytest.raises(IoError, match="media error"):
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
    kernel = Kernel(sim, slow, KernelConfig())
    StorageBpf(kernel)
    kernel.create_file("/f", bytes(8192))
    inode = kernel.fs.lookup("/f")
    kernel.device.inject_media_error(inode.extents.lookup(0) * 8, 8)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pread(proc, fd, 0, 512)

    with pytest.raises(IoError, match="media error"):
        kernel.run_syscall(workload())


def test_write_raises_on_media_error():
    sim, kernel, bpf = build_machine()
    kernel.create_file("/f", bytes(4096))
    inode = kernel.fs.lookup("/f")
    kernel.device.inject_media_error(inode.extents.lookup(0) * 8, 8)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pwrite(proc, fd, 0, b"x" * 512)

    with pytest.raises(IoError, match="media error"):
        kernel.run_syscall(workload())


def test_chain_surfaces_media_error_as_eio():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.EIO
    assert result.hops == 3  # blocks 0, 1 ok; block 2 fails


def test_robust_read_raises_on_eio():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        yield from bpf.read_chain_robust(proc, fd, 0, 4096)

    with pytest.raises(IoError, match="media error"):
        kernel.run_syscall(workload())


def test_iouring_posts_eio_cqe():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
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


def test_clear_media_errors_recovers():
    sim, kernel, bpf = make_machine_with_error(fail_block=2)
    proc = kernel.spawn_process()

    def failing():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)

    with pytest.raises(IoError):
        kernel.run_syscall(failing())
    kernel.device.clear_media_errors()

    def healthy():
        fd = yield from kernel.sys_open(proc, "/list")
        result = yield from kernel.sys_pread(proc, fd, 2 * 4096, 512)
        return result

    assert kernel.run_syscall(healthy()).ok
    assert kernel.device.media_errors == 1
