"""ChainHandle lifecycle, ChainStatus compatibility, InstallRequest
validation, and multi-queue determinism."""

import dataclasses

import pytest

from chainutil import build_machine, linked_file_bytes, walker_program
from repro.core import ChainHandle, InstallRequest
from repro.ebpf import HelperRegistry, verify
from repro.ebpf.verifier import proof_context
from repro.errors import BadFileDescriptor, InvalidArgument
from repro.kernel import ChainStatus, ReadResult
from simutil import open_fds


def make_handle(path="/list", order=(0, 1, 2), **config_kwargs):
    """(sim, kernel, bpf, proc, handle) with a walker installed on a
    linked-block file via open_chain."""
    sim, kernel, bpf = build_machine(**config_kwargs)
    kernel.create_file(path, linked_file_bytes(list(order)))
    proc = kernel.spawn_process()
    program = walker_program(bpf)
    handle = kernel.run_syscall(bpf.open_chain(proc, path, program))
    return sim, kernel, bpf, proc, handle


# ---------------------------------------------------------------------------
# ChainHandle lifecycle
# ---------------------------------------------------------------------------


def test_open_chain_returns_live_handle():
    sim, kernel, bpf, proc, handle = make_handle()
    assert isinstance(handle, ChainHandle)
    assert not handle.closed
    assert handle.proc is proc
    assert handle.block_size == 4096
    assert handle.installation is not None
    assert proc.file(handle.fd).bpf_install is handle.installation


def test_handle_read_walks_chain():
    sim, kernel, bpf, proc, handle = make_handle(order=[0, 3, 1, 2])
    result = kernel.run_syscall(handle.read_robust(0))
    assert result.ok
    assert result.status is ChainStatus.OK
    assert result.value == 1002  # payload of the final block (index 2)
    assert result.hops == 4


def test_handle_read_defaults_to_installed_block_size():
    sim, kernel, bpf, proc, handle = make_handle()
    explicit = kernel.run_syscall(handle.read_robust(0, length=4096))
    implicit = kernel.run_syscall(handle.read_robust(0))
    assert implicit.value == explicit.value


def test_handle_read_robust_and_refresh():
    sim, kernel, bpf, proc, handle = make_handle(order=[2, 0, 1])
    assert kernel.run_syscall(bpf.refresh(proc, handle.fd)) == 0
    result = kernel.run_syscall(handle.read_robust(2 * 4096))
    assert result.ok
    assert result.value == 1001


def test_handle_close_is_idempotent():
    sim, kernel, bpf, proc, handle = make_handle()
    assert kernel.run_syscall(handle.close()) == 0
    assert handle.closed
    assert open_fds(proc) == 0
    assert handle.installation is None
    # Second close is a no-op, not a BadFileDescriptor.
    assert kernel.run_syscall(handle.close()) == 0


def test_handle_read_after_close_raises():
    sim, kernel, bpf, proc, handle = make_handle()
    kernel.run_syscall(handle.close())
    with pytest.raises(BadFileDescriptor):
        kernel.run_syscall(handle.read_robust(0))


def test_open_chain_releases_fd_on_failed_install():
    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes([0, 1]))
    proc = kernel.spawn_process()
    program = walker_program(bpf)
    with pytest.raises(InvalidArgument):
        kernel.run_syscall(bpf.open_chain(proc, "/list", program,
                                          args=(1, 2, 3, 4, 5)))
    assert open_fds(proc) == 0


# ---------------------------------------------------------------------------
# ChainStatus: enum members equal the historical status strings
# ---------------------------------------------------------------------------


def test_chain_status_compares_and_renders_as_string():
    assert ChainStatus.OK == "ok"
    assert ChainStatus.EXTENT_INVALIDATED == "eextent"
    assert str(ChainStatus.OK) == "ok"
    assert "{}".format(ChainStatus.SPLIT_FALLBACK) == "split-fallback"
    assert f"{ChainStatus.EIO}" == "eio"


def test_read_result_coerces_status_strings():
    result = ReadResult(b"", status="eextent")
    assert result.status is ChainStatus.EXTENT_INVALIDATED
    assert not result.ok
    with pytest.raises(InvalidArgument, match="unknown read status"):
        ReadResult(b"", status="maybe")


# ---------------------------------------------------------------------------
# InstallRequest: frozen dataclass with field-naming validation
# ---------------------------------------------------------------------------


def _program():
    _sim, _kernel, bpf = build_machine()
    return walker_program(bpf)


def test_install_request_is_frozen():
    request = InstallRequest(_program())
    with pytest.raises(dataclasses.FrozenInstanceError):
        request.block_size = 8192


def test_install_request_normalises_args():
    request = InstallRequest(_program(), args=[7, 8])
    assert request.args == (7, 8)


def test_install_proves_again_a_program_proved_against_other_helpers():
    _sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes([0, 1, 2]))
    proc = kernel.spawn_process()
    program = walker_program(bpf)
    verify(program, HelperRegistry())
    other = program.proof
    handle = kernel.run_syscall(bpf.open_chain(proc, "/list", program))
    assert program.proof is not other
    assert program.verified_against == proof_context(bpf.helpers)
    # Proved against these helpers now: a second install keeps the proof.
    proven = program.proof
    kernel.run_syscall(bpf.open_chain(proc, "/list", program))
    assert program.proof is proven
    assert kernel.run_syscall(handle.read_robust(0)).ok


@pytest.mark.parametrize("kwargs, field", [
    (dict(block_size=0), "block_size"),
    (dict(block_size=-4096), "block_size"),
    (dict(scratch_size=0), "scratch_size"),
    (dict(args=(1, 2, 3, 4, 5)), "args"),
])
def test_install_request_names_bad_field(kwargs, field):
    with pytest.raises(InvalidArgument, match=field):
        InstallRequest(_program(), **kwargs)


def test_install_request_rejects_non_program():
    with pytest.raises(InvalidArgument, match="program"):
        InstallRequest("not a program")


# ---------------------------------------------------------------------------
# Multi-queue determinism and queue locality
# ---------------------------------------------------------------------------


def test_chain_hops_stay_on_originating_queue():
    order = [0, 4, 2, 3, 1]
    sim, kernel, bpf, proc, handle = make_handle(order=order, queue_pairs=4)
    result = kernel.run_syscall(handle.read_robust(0))
    assert result.ok
    home = kernel.queue_for(proc)
    assert kernel.device.queue_completed[home] == len(order)
    others = [count for queue, count in
              enumerate(kernel.device.queue_completed) if queue != home]
    assert sum(others) == 0


def test_mq_scaling_runs_are_byte_identical():
    from repro.bench.experiments import mq_scaling

    kwargs = dict(queue_pairs=(1, 2), threads=(4,), depth=2,
                  duration_ns=200_000)
    assert mq_scaling(**kwargs) == mq_scaling(**kwargs)


def test_single_queue_matches_legacy_timing():
    # queue_pairs=1 without steering must execute the legacy event
    # sequence: same final sim time, same completion count.
    results = []
    for kwargs in ({}, {"queue_pairs": 1, "irq_steering": False}):
        sim, kernel, bpf, proc, handle = make_handle(order=[0, 2, 1],
                                                     **kwargs)
        result = kernel.run_syscall(handle.read_robust(0))
        assert result.ok
        results.append((sim.now, kernel.device.completed, result.value))
    assert results[0] == results[1]
