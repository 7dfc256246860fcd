"""Tests for the block device, latency models, and NVMe device."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.device import (
    DEVICE_PROFILES,
    BlockDevice,
    LatencyModel,
    NVM_GEN2,
    NvmeCommand,
    NvmeDevice,
)
from repro.errors import InvalidArgument, IoError
from repro.faults import FaultPlan, FaultSpec
from repro.sim import RandomStreams, Simulator


# ---------------------------------------------------------------------------
# BlockDevice
# ---------------------------------------------------------------------------


def test_blockdev_read_unwritten_is_zero():
    dev = BlockDevice(16)
    assert dev.read(0, 2) == bytes(1024)


def test_blockdev_write_read_roundtrip():
    dev = BlockDevice(16)
    payload = bytes(range(256)) * 4  # 1024 bytes = 2 sectors
    dev.write(3, payload)
    assert dev.read(3, 2) == payload
    assert dev.read(2, 1) == bytes(512)


def test_blockdev_bounds_enforced():
    dev = BlockDevice(4)
    with pytest.raises(IoError):
        dev.read(3, 2)
    with pytest.raises(IoError):
        dev.write(4, bytes(512))
    with pytest.raises(InvalidArgument):
        dev.read(0, 0)


def test_blockdev_unaligned_write_rejected():
    dev = BlockDevice(4)
    with pytest.raises(InvalidArgument):
        dev.write(0, bytes(100))


def test_blockdev_discard():
    dev = BlockDevice(4)
    dev.write(1, bytes([7] * 512))
    assert dev.written_sectors() == 1
    dev.discard(0, 4)
    assert dev.written_sectors() == 0
    assert dev.read(1, 1) == bytes(512)


def _sectors_of(first, count):
    """``count`` sectors whose contents differ sector by sector."""
    return b"".join(bytes([(first + k) % 256]) * 512 for k in range(count))


def test_blockdev_overwrite_splits_runs_on_one_and_both_sides():
    """Leftovers longer than a 4 KiB block stay views of the cut run's
    buffer; shorter ones are copies.  Both read back the same."""
    dev = BlockDevice(64)
    dev.write(0, _sectors_of(1, 40))
    dev.write(20, _sectors_of(100, 2))   # inside: splits on both sides
    dev.write(36, _sectors_of(200, 8))   # overlaps the right end only
    dev.discard(0, 3)                    # cuts the left end only
    expected = (bytes(3 * 512) + _sectors_of(4, 17) + _sectors_of(100, 2)
                + _sectors_of(23, 14) + _sectors_of(200, 8) + bytes(20 * 512))
    assert dev.read(0, 64) == expected
    assert dev.read(21, 1) == _sectors_of(101, 1)
    assert dev.read(19, 4) == expected[19 * 512:23 * 512]
    assert dev.written_sectors() == 41
    assert dev.image() == {sector: expected[sector * 512:(sector + 1) * 512]
                           for sector in range(3, 44)}


@given(st.data())
def test_blockdev_matches_reference_model(data):
    """Writes (of ``bytes``, of a view of ``bytes``, of a ``bytearray``
    and of a view of one, the last two mutated right after the write),
    discards and reads against a flat byte array; partial overlaps cut
    runs on one side or both."""
    dev = BlockDevice(32)
    reference = bytearray(32 * 512)
    written = [False] * 32
    for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
        lba = data.draw(st.integers(min_value=0, max_value=30))
        count = data.draw(st.integers(min_value=1, max_value=32 - lba))
        span = slice(lba * 512, (lba + count) * 512)
        op = data.draw(st.sampled_from(
            ["bytes", "bytes view", "bytearray", "bytearray view",
             "discard", "read"]))
        if op == "read":
            assert dev.read(lba, count) == bytes(reference[span])
        elif op == "discard":
            dev.discard(lba, count)
            reference[span] = bytes(count * 512)
            written[lba:lba + count] = [False] * count
        else:
            payload = _sectors_of(data.draw(st.integers(0, 255)), count)
            if op == "bytes":
                dev.write(lba, payload)
            elif op == "bytes view":
                dev.write(lba, memoryview(bytes(512) + payload)[512:])
            else:
                buf = bytearray(payload)
                dev.write(lba, buf if op == "bytearray" else memoryview(buf))
                buf[:] = b"\xee" * len(buf)
            reference[span] = payload
            written[lba:lba + count] = [True] * count
    assert dev.read(0, 32) == bytes(reference)
    assert dev.written_sectors() == sum(written)
    assert dev.image() == {
        sector: bytes(reference[sector * 512:(sector + 1) * 512])
        for sector in range(32) if written[sector]}


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


def test_profiles_are_ordered_by_speed():
    assert (DEVICE_PROFILES["hdd"].read_ns
            > DEVICE_PROFILES["nand"].read_ns
            > DEVICE_PROFILES["nvm1"].read_ns
            > DEVICE_PROFILES["nvm2"].read_ns)


def test_nvm2_matches_table1_device_latency():
    assert NVM_GEN2.read_ns == 3224


def test_sample_within_jitter_band():
    rng = RandomStreams(1).stream("dev")
    model = LatencyModel("x", read_ns=1000, write_ns=1000, parallelism=1,
                         jitter=0.1)
    for _ in range(200):
        sample = model.sample_read(rng)
        assert 900 <= sample <= 1100


def test_zero_jitter_is_deterministic():
    rng = RandomStreams(1).stream("dev")
    model = LatencyModel("x", read_ns=1000, write_ns=900, parallelism=1,
                         jitter=0.0)
    assert model.sample_read(rng) == 1000
    assert model.sample_write(rng) == 900


def test_max_iops():
    model = LatencyModel("x", read_ns=1000, write_ns=1000, parallelism=4,
                         jitter=0.0)
    assert model.max_iops() == pytest.approx(4e6)


def test_bad_model_rejected():
    with pytest.raises(InvalidArgument):
        LatencyModel("x", read_ns=0, write_ns=1, parallelism=1)
    with pytest.raises(InvalidArgument):
        LatencyModel("x", read_ns=1, write_ns=1, parallelism=0)
    with pytest.raises(InvalidArgument):
        LatencyModel("x", read_ns=1, write_ns=1, parallelism=1, jitter=1.5)


# ---------------------------------------------------------------------------
# NVMe device
# ---------------------------------------------------------------------------


def make_device(parallelism=2, jitter=0.0, read_ns=1000):
    sim = Simulator()
    model = LatencyModel("t", read_ns=read_ns, write_ns=read_ns,
                         parallelism=parallelism, jitter=jitter)
    media = BlockDevice(64)
    rng = RandomStreams(7).stream("nvme")
    device = NvmeDevice(sim, model, media, rng)
    return sim, device, media


def test_nvme_read_completes_with_data():
    sim, device, media = make_device()
    media.write(5, b"\xaa" * 512)
    done = []
    device.completion_handler = lambda cmd: done.append(cmd)
    device.submit(NvmeCommand("read", 5, 1))
    sim.run()
    assert len(done) == 1
    assert done[0].data == b"\xaa" * 512
    assert done[0].complete_ns == 1000


def test_nvme_write_hits_media():
    sim, device, media = make_device()
    done = []
    device.completion_handler = lambda cmd: done.append(cmd)
    device.submit(NvmeCommand("write", 3, 1, data=b"\x55" * 512))
    sim.run()
    assert media.read(3, 1) == b"\x55" * 512


def test_nvme_parallelism_bounds_throughput():
    # 4 commands on a 2-wide device at 1 us each -> finishes at 2 us.
    sim, device, _ = make_device(parallelism=2)
    done = []
    device.completion_handler = lambda cmd: done.append(sim.now)
    for lba in range(4):
        device.submit(NvmeCommand("read", lba, 1))
    sim.run()
    assert done == [1000, 1000, 2000, 2000]


def test_nvme_completion_without_handler_raises():
    sim, device, _ = make_device()
    device.submit(NvmeCommand("read", 0, 1))
    with pytest.raises(IoError):
        sim.run()


def test_nvme_command_validation():
    with pytest.raises(InvalidArgument):
        NvmeCommand("erase", 0, 1)
    with pytest.raises(InvalidArgument):
        NvmeCommand("write", 0, 1)
    with pytest.raises(InvalidArgument):
        NvmeCommand("write", 0, 2, data=bytes(512))


def test_nvme_retarget_clears_state():
    cmd = NvmeCommand("read", 1, 1)
    cmd.data = b"x"
    cmd.retarget(9, 2)
    assert (cmd.lba, cmd.sectors, cmd.data) == (9, 2, None)


def test_nvme_retarget_clears_service_stamps():
    """A recycled descriptor must not carry the previous hop's timings."""
    sim, device, _ = make_device(parallelism=1)
    device.completion_handler = lambda c: None
    cmd = NvmeCommand("read", 1, 1)
    cmd.driver_ns = 123
    device.submit(cmd)
    sim.run()
    assert cmd.complete_ns != -1 and cmd.submit_ns != -1
    cmd.span = 42
    cmd.path = "chain"
    cmd.retarget(2, 1)
    assert (cmd.submit_ns, cmd.complete_ns, cmd.driver_ns) == (-1, -1, 0)
    assert cmd.status == 0
    # span/path are caller-owned context and survive the recycle.
    assert (cmd.span, cmd.path) == (42, "chain")


def test_nvme_stale_descriptor_resubmit_rejected():
    """Resubmitting a completed descriptor without retarget is a bug."""
    sim, device, _ = make_device(parallelism=1)
    device.completion_handler = lambda c: None
    cmd = NvmeCommand("read", 1, 1)
    device.submit(cmd)
    sim.run()
    with pytest.raises(IoError, match="stale NVMe descriptor"):
        device.submit(cmd)
    cmd.retarget(1, 1)
    device.submit(cmd)
    sim.run()
    assert device.completed == 2


def test_nvme_error_completion_has_no_payload():
    """The error-payload contract: status != 0 <=> data is None, and a
    successful read's payload is exactly sectors * 512 bytes."""
    sim, device, _ = make_device(parallelism=1)
    seen = []
    device.completion_handler = seen.append
    device.fault_plan = FaultPlan(FaultSpec())
    device.fault_plan.inject(5)
    device.submit(NvmeCommand("read", 5, 2))
    device.submit(NvmeCommand("read", 8, 2))
    sim.run()
    failed, ok = seen
    assert failed.status != 0
    assert failed.data is None
    assert ok.status == 0
    assert len(ok.data) == ok.sectors * 512


def test_nvme_queue_depth_tracking():
    sim, device, _ = make_device(parallelism=1)
    device.completion_handler = lambda cmd: None
    for lba in range(3):
        device.submit(NvmeCommand("read", lba, 1))
    assert device.queue_depth == 3
    sim.run()
    assert device.queue_depth == 0
    assert device.completed == 3
