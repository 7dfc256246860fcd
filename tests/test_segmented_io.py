"""Segmented I/O: every multi-segment read and write the kernel issues.

A range whose extents are not contiguous maps to several ``(lba,
sectors)`` segments.  ``Kernel.transfer`` moves them for a waiting caller
(``sys_pread``, ``sys_pwrite``, a synchronous chain's split first hop) and
``Kernel.gather`` for a caller that does not wait (plain io_uring SQEs, an
io_uring chain's split first hop, the mid-chain split).  Both post every
segment back to back and join the chunks in segment order, whatever order
a jittered device completes them in.  Each regression test pins one seed
on which segments complete out of order, and checks the synchronous path
on the same machine as the control.
"""

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.device import LatencyModel
from repro.errors import IoError
from repro.faults import FaultSpec
from repro.kernel import ChainStatus, IoUring
from repro.obs import ObsSession, SpanCollector, TraceBus, events

#: Service times spread +-50 %, so back-to-back segments overtake each
#: other.
JITTERED = LatencyModel("jittered", read_ns=3224, write_ns=3600,
                        parallelism=8, jitter=0.5)
#: One service slot: segments complete strictly one after another.
SERIAL = LatencyModel("serial", read_ns=3224, write_ns=3600, parallelism=1,
                      jitter=0.0)
#: Eleven linked 4 KiB blocks plus a spare one.  With two blocks per
#: extent, every 8 KiB read at an odd block crosses an extent boundary and
#: splits into two segments; the walker's first hop at offset 0 does not
#: split, its second hop (offset 4096) does.
WIDE = linked_file_bytes(list(range(11))) + bytes(4096)
SPLIT = WIDE[4096:12288]


def test_uring_sqe_joins_segments_in_file_order():
    with ObsSession() as obs:
        sim, kernel, bpf = build_machine(model=JITTERED, seed=0,
                                         max_extent_blocks=1)
    payload = b"".join(bytes([65 + block]) * 4096 for block in range(4))
    kernel.create_file("/f", payload)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, 0, len(payload))
        (cqe,) = yield from ring.enter(wait_nr=1)
        control = yield from kernel.sys_pread(proc, fd, 0, len(payload))
        return cqe.result, control

    result, control = kernel.run_syscall(workload())
    commands = obs.registry.get("nvme_commands_total")
    assert commands.value(source="bio") == 8  # 4 segments, twice
    assert control.data == payload
    assert result.ok
    assert result.data == payload


def test_split_read_ledger_adds_the_critical_path_once():
    # Four segments in flight at once on a jittered device: the ledger
    # claims the overlapping device times once, whatever order they
    # complete in, and the read's ledger is exactly its latency.
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    # Completions in completion order, each with its submit instant.
    posted = []
    bus.subscribe(lambda e: posted.append(e.ts - e.get("service_ns")
                                          - e.get("queue_ns")),
                  events.NVME_COMPLETE)
    sim, kernel, bpf = build_machine(model=JITTERED, seed=0, bus=bus,
                                     max_extent_blocks=1)
    kernel.create_file("/f", bytes(4 * 4096))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        start = sim.now
        yield from kernel.sys_pread(proc, fd, 0, 4 * 4096)
        return sim.now - start

    latency = kernel.run_syscall(workload())
    # Segments were posted in segment order and completed out of it.
    assert posted != sorted(posted)
    (root,) = spans.find_roots("sys_pread")
    assert sum(root.ledger.values()) == root.duration_ns == latency
    assert "unattributed" not in root.ledger
    assert root.ledger["NVMe driver"] == 4 * kernel.cost.nvme_driver_ns
    assert root.ledger["storage device"] < 4 * JITTERED.read_ns


@pytest.mark.parametrize("offset", [4096, 0],
                         ids=["first-hop-split", "mid-chain-split"])
def test_uring_chain_split_fallback_holds_blocks_in_file_order(offset):
    sim, kernel, bpf = build_machine(model=JITTERED, seed=9,
                                     max_extent_blocks=2)
    kernel.create_file("/wide", WIDE)
    proc, fd = install_walker(sim, kernel, bpf, "/wide", block_size=8192)

    def workload():
        ring = IoUring(kernel, proc)
        ring.prep_read(fd, offset, 8192, tagged=True)
        (cqe,) = yield from ring.enter(wait_nr=1)
        control = yield from bpf.read_chain(proc, fd, 4096, 8192)
        return cqe.result, control

    result, control = kernel.run_syscall(workload())
    assert control.status == ChainStatus.SPLIT_FALLBACK
    assert control.data == SPLIT
    assert result.status == ChainStatus.SPLIT_FALLBACK
    assert result.final_offset == 4096
    assert result.data == SPLIT


@pytest.mark.parametrize("op", ["pread", "pwrite"])
def test_idle_fault_plan_leaves_split_latency_unchanged(op):
    # An armed retry policy with nothing to retry must not change how the
    # eight segments are issued: all in flight at once, as without a plan.
    def latency(fault_plan):
        with ObsSession() as obs:
            sim, kernel, bpf = build_machine(max_extent_blocks=1,
                                             fault_plan=fault_plan)
        kernel.create_file("/f", bytes(8 * 4096))
        proc = kernel.spawn_process()

        def workload():
            fd = yield from kernel.sys_open(proc, "/f")
            start = sim.now
            if op == "pread":
                yield from kernel.sys_pread(proc, fd, 0, 8 * 4096)
            else:
                yield from kernel.sys_pwrite(proc, fd, 0, b"z" * 8 * 4096)
            return sim.now - start

        elapsed = kernel.run_syscall(workload())
        commands = obs.registry.get("nvme_commands_total")
        assert commands.value(source="bio") == 8
        assert (kernel.retry_policy is None) == (fault_plan is None)
        return elapsed

    assert latency(FaultSpec()) == latency(None)


@pytest.mark.parametrize("tagged", [False, True],
                         ids=["uring-sqe", "mid-chain-split"])
def test_failed_segment_is_delivered_after_the_others_complete(tagged):
    # The first of two segments fails; on a one-slot device the second
    # completes a full service time later.  EIO waits for it.
    sim, kernel, bpf = build_machine(model=SERIAL, max_extent_blocks=2,
                                     fault_plan=FaultSpec(seed=1))
    kernel.create_file("/wide", WIDE)
    proc, fd = install_walker(sim, kernel, bpf, "/wide", block_size=8192)
    inode = kernel.fs.lookup("/wide")
    kernel.fault_plan.inject(inode.extents.lookup(1) * 8, times=1)
    ring = IoUring(kernel, proc)
    post_cqe = ring._post_cqe
    in_flight_at_delivery = []

    def spy(user_data, result):
        in_flight_at_delivery.append(kernel.device.in_flight)
        post_cqe(user_data, result)

    ring._post_cqe = spy

    def workload():
        ring.prep_read(fd, 0 if tagged else 4096, 8192, tagged=tagged)
        (cqe,) = yield from ring.enter(wait_nr=1)
        return cqe.result

    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.EIO
    assert result.data == b""
    assert kernel.device.media_errors == 1
    assert in_flight_at_delivery == [0]


def test_transfer_retries_in_place_and_raises_after_every_segment():
    def machine(fault_plan):
        with ObsSession() as obs:
            sim, kernel, bpf = build_machine(max_extent_blocks=1,
                                             fault_plan=fault_plan)
        payload = b"".join(bytes([65 + block]) * 4096 for block in range(4))
        kernel.create_file("/f", payload)
        lba = kernel.fs.lookup("/f").extents.lookup(1) * 8
        return kernel, payload, lba, obs.registry.get("nvme_commands_total")

    def pread(kernel, payload):
        proc = kernel.spawn_process()

        def workload():
            fd = yield from kernel.sys_open(proc, "/f")
            try:
                result = yield from kernel.sys_pread(proc, fd, 0,
                                                     len(payload))
            except IoError as exc:
                return exc, kernel.device.in_flight
            return result, kernel.device.in_flight

        return kernel.run_syscall(workload())

    # Under the policy the second segment is retried where it failed.
    kernel, payload, lba, commands = machine(FaultSpec(seed=1))
    kernel.fault_plan.inject(lba, times=1)
    result, _ = pread(kernel, payload)
    assert result.data == payload
    assert kernel.nvme_retries == 1
    assert commands.value(source="retry") == 1

    # Without one it is _check's error, raised once nothing is in flight.
    kernel, payload, lba, commands = machine(None)
    kernel.device.inject_media_error(lba)
    error, in_flight = pread(kernel, payload)
    assert f"media error at lba {lba} (read)" in str(error)
    assert in_flight == 0
    assert commands.value(source="bio") == 4
