"""The fault-plan subsystem: injection, retry/backoff, graceful degradation.

Covers the spec/plan unit semantics (episodes, cooldown, windows,
staleness, determinism), the NVMe driver's retry rule on the plain read
and write paths, the chain engine's in-IRQ retries and fallback to user
space, the interaction with the resubmission bound, and the end-to-end
determinism + metrics-reconciliation acceptance criteria.
"""

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.device import NvmeCommand
from repro.errors import InvalidArgument, IoError
from repro.faults import (
    FAULT_NET_DELAY,
    FAULT_NET_DROP,
    FAULT_STALE,
    FAULT_TIMEOUT,
    FAULT_TRANSIENT,
    FaultPlan,
    FaultSpec,
    fault_injection,
    get_default_fault_spec,
    parse_fault_spec,
)
from repro.kernel import ChainStatus
from repro.obs import ObsSession

ORDER = [0, 1, 2, 3]

#: Zero-rate plan: no random faults, so tests drive failures
#: deterministically through ``plan.inject``.
IDLE = FaultSpec(seed=1)


def lba_of_block(kernel, path, block):
    inode = kernel.fs.lookup(path)
    return inode.extents.lookup(block) * 8


# ---------------------------------------------------------------------------
# FaultSpec + parse_fault_spec
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_rates():
    with pytest.raises(InvalidArgument, match="read_error_rate"):
        FaultSpec(read_error_rate=1.5)
    with pytest.raises(InvalidArgument, match="sum"):
        FaultSpec(read_error_rate=0.6, timeout_rate=0.3, spike_rate=0.2)
    with pytest.raises(InvalidArgument, match="error_burst"):
        FaultSpec(error_burst=0)
    with pytest.raises(InvalidArgument, match="spike_factor"):
        FaultSpec(spike_factor=0.5)
    with pytest.raises(InvalidArgument, match=">= 0"):
        FaultSpec(stale_interval_ns=-1)


def test_spec_window():
    spec = FaultSpec(read_error_rate=0.1, window_start_ns=100,
                     window_end_ns=200)
    assert not spec.active(99)
    assert spec.active(100)
    assert spec.active(199)
    assert not spec.active(200)
    open_ended = FaultSpec(read_error_rate=0.1, window_start_ns=100)
    assert open_ended.active(10 ** 12)


def test_parse_fault_spec():
    spec = parse_fault_spec(
        "seed=7, read_error_rate=0.01, error_burst=2, timeout_rate=0.001")
    assert spec == FaultSpec(seed=7, read_error_rate=0.01, error_burst=2,
                             timeout_rate=0.001)
    assert isinstance(spec.seed, int) and isinstance(spec.error_burst, int)


def test_parse_fault_spec_rejects_garbage():
    with pytest.raises(InvalidArgument, match="unknown fault-plan key"):
        parse_fault_spec("read_rate=0.1")
    with pytest.raises(InvalidArgument, match="want key=value"):
        parse_fault_spec("read_error_rate")
    with pytest.raises(InvalidArgument, match="bad fault-plan value"):
        parse_fault_spec("read_error_rate=lots")
    with pytest.raises(InvalidArgument, match="in \\[0, 1\\]"):
        parse_fault_spec("read_error_rate=2.0")


def test_default_spec_plumbing():
    assert get_default_fault_spec() is None
    spec = FaultSpec(seed=3)
    with fault_injection(spec):
        assert get_default_fault_spec() is spec
        sim, kernel, bpf = build_machine()
        assert kernel.fault_plan is not None
    assert get_default_fault_spec() is None
    _, plain_kernel, _ = build_machine()
    assert plain_kernel.fault_plan is None


# ---------------------------------------------------------------------------
# FaultPlan decisions
# ---------------------------------------------------------------------------


def read_cmd(lba):
    return NvmeCommand("read", lba, 8)


def test_episode_burst_then_guaranteed_recovery():
    plan = FaultPlan(FaultSpec(read_error_rate=1.0, error_burst=3))
    decisions = [plan.media_decision(read_cmd(5), 0) for _ in range(5)]
    # Three consecutive failures, then the cooldown guarantees a success,
    # then (rate 1.0) a fresh episode begins.
    assert decisions == [FAULT_TRANSIENT] * 3 + [None, FAULT_TRANSIENT]
    assert plan.injected[FAULT_TRANSIENT] == 4


def test_inject_opens_episode_without_rates():
    plan = FaultPlan(IDLE)
    plan.inject(9, times=2)
    assert plan.media_decision(read_cmd(9), 0) == FAULT_TRANSIENT
    assert plan.media_decision(read_cmd(9), 0) == FAULT_TRANSIENT
    assert plan.media_decision(read_cmd(9), 0) is None   # cooldown
    assert plan.media_decision(read_cmd(9), 0) is None   # genuinely healthy
    assert plan.media_decision(read_cmd(10), 0) is None  # other LBA untouched
    with pytest.raises(InvalidArgument):
        plan.inject(9, kind="spike")
    with pytest.raises(InvalidArgument):
        plan.inject(9, times=0)


def test_window_gates_random_draws():
    spec = FaultSpec(read_error_rate=1.0, window_start_ns=1000,
                     window_end_ns=2000)
    plan = FaultPlan(spec)
    assert plan.media_decision(read_cmd(1), 0) is None
    assert plan.media_decision(read_cmd(1), 1500) == FAULT_TRANSIENT
    # The cooldown from the in-window episode is consumed...
    assert plan.media_decision(read_cmd(1), 1600) is None
    # ...and past the window nothing is drawn at all.
    assert plan.media_decision(read_cmd(1), 2500) is None


def test_same_seed_same_decisions():
    spec = FaultSpec(seed=11, read_error_rate=0.2, timeout_rate=0.1,
                     spike_rate=0.1)

    def sequence(kernel_seed):
        plan = FaultPlan(spec, kernel_seed=kernel_seed)
        return [plan.media_decision(read_cmd(lba % 7), lba * 10)
                for lba in range(200)]

    assert sequence(4) == sequence(4)
    assert sequence(4) != sequence(5)


def test_stale_due_fixed_interval_steps():
    plan = FaultPlan(FaultSpec(stale_interval_ns=100))
    assert not plan.stale_due(50)
    assert plan.stale_due(150)
    assert not plan.stale_due(150)       # one observation per deadline
    assert plan.stale_due(400)           # catches up in fixed steps...
    assert not plan.stale_due(450)       # ...without double-firing
    assert plan.injected[FAULT_STALE] == 2
    assert plan.total_injected() == 2


# ---------------------------------------------------------------------------
# Driver retry on the plain read/write paths
# ---------------------------------------------------------------------------


def test_transient_read_recovers():
    sim, kernel, bpf = build_machine(fault_plan=IDLE)
    payload = bytes(range(256)) * 16
    kernel.create_file("/f", payload)
    kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0), times=1)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        result = yield from kernel.sys_pread(proc, fd, 0, 512)
        return result

    result = kernel.run_syscall(workload())
    assert result.ok
    assert result.data == payload[:512]
    assert kernel.nvme_retries == 1
    assert kernel.device.media_errors == 1


def test_retry_exhaustion_surfaces_io_error():
    sim, kernel, bpf = build_machine(fault_plan=IDLE)
    kernel.create_file("/f", bytes(4096))
    # The driver's rule: 4 retries = 5 attempts; fail all five.
    kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0), times=5)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pread(proc, fd, 0, 512)

    with pytest.raises(IoError, match="failed after 5 attempts"):
        kernel.run_syscall(workload())
    assert kernel.nvme_retries == 4


def test_faulted_pwrite_closes_its_span():
    # A write that ends in IoError must not leave a span with no end in
    # the trace (sys_pread and sys_fsync close theirs in ``finally`` too).
    with ObsSession() as obs:
        sim, kernel, bpf = build_machine(fault_plan=IDLE)
        kernel.create_file("/f", bytes(4096))
        kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0), times=5,
                                 opcode="write")
        proc = kernel.spawn_process()

        def workload():
            fd = yield from kernel.sys_open(proc, "/f")
            yield from kernel.sys_pwrite(proc, fd, 0, b"x" * 512)

        with pytest.raises(IoError, match="failed after 5 attempts"):
            kernel.run_syscall(workload())
    (root,) = obs.spans.find_roots("sys_pwrite")
    assert root.end_ns == sim.now


def test_backoff_charges_simulated_time():
    sim, kernel, bpf = build_machine(fault_plan=IDLE)
    kernel.create_file("/f", bytes(4096))
    proc = kernel.spawn_process()

    def timed_read(fd):
        start = sim.now
        yield from kernel.sys_pread(proc, fd, 0, 512)
        return sim.now - start

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        clean = yield from timed_read(fd)
        kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0), times=2)
        faulted = yield from timed_read(fd)
        return faulted - clean

    extra = kernel.run_syscall(workload())
    # Two retries on a polled (held) core: each pays the default backoff
    # (2 us, then 4 us) as sleep, then the driver cost and a service time.
    assert kernel.nvme_retries == 2
    assert extra == 2_000 + 4_000 + 2 * (kernel.cost.nvme_driver_ns +
                                         kernel.model.read_ns)


def test_timeout_recovers_after_watchdog():
    sim, kernel, bpf = build_machine(fault_plan=IDLE)
    kernel.create_file("/f", bytes(4096))
    kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0),
                             kind=FAULT_TIMEOUT, times=1)
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        start = sim.now
        result = yield from kernel.sys_pread(proc, fd, 0, 512)
        return result, sim.now - start

    result, elapsed = kernel.run_syscall(workload())
    assert result.ok
    assert kernel.nvme_timeouts == 1
    assert kernel.device.timeouts == 1
    # The faulted attempt held its slot for the full watchdog interval.
    assert kernel.device.command_timeout_ns > 0
    assert elapsed >= kernel.device.command_timeout_ns


def test_transient_write_recovers():
    sim, kernel, bpf = build_machine(fault_plan=IDLE)
    kernel.create_file("/f", bytes(4096))
    kernel.fault_plan.inject(lba_of_block(kernel, "/f", 0), times=1,
                             opcode="write")
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/f")
        yield from kernel.sys_pwrite(proc, fd, 0, b"y" * 512)
        result = yield from kernel.sys_pread(proc, fd, 0, 512)
        return result

    result = kernel.run_syscall(workload())
    assert result.data == b"y" * 512
    assert kernel.nvme_retries == 1


def test_no_plan_leaves_results_identical():
    """Arming an all-zero-rate plan must not perturb the simulation."""

    def run(**config_kwargs):
        sim, kernel, bpf = build_machine(**config_kwargs)
        kernel.create_file("/list", linked_file_bytes(ORDER))
        proc, fd = install_walker(sim, kernel, bpf, "/list")

        def workload():
            result = yield from bpf.read_chain(proc, fd, 0, 4096)
            return result

        result = kernel.run_syscall(workload())
        return result.value, result.hops, sim.now

    assert run() == run(fault_plan=IDLE)


# ---------------------------------------------------------------------------
# Chain-path recovery and degradation
# ---------------------------------------------------------------------------


def make_faulted_chain(times, fail_block=2, **config_kwargs):
    config_kwargs.setdefault("fault_plan", IDLE)
    sim, kernel, bpf = build_machine(**config_kwargs)
    kernel.create_file("/list", linked_file_bytes(ORDER))
    kernel.fault_plan.inject(lba_of_block(kernel, "/list", fail_block),
                             times=times)
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    return sim, kernel, bpf, proc, fd


def test_chain_retries_transient_hop_in_irq():
    sim, kernel, bpf, proc, fd = make_faulted_chain(times=2)

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == 1000 + ORDER[-1]
    assert bpf.engine.fault_retries == 2
    assert bpf.engine.fault_fallbacks == 0
    assert kernel.nvme_retries == 2
    # Every retry is charged against the per-pid resubmission accounting
    # exactly like a program-driven hop: 3 recycles + 2 fault retries.
    assert bpf.accounting.totals[proc.pid] == len(ORDER) - 1 + 2


def test_chain_falls_back_to_user_space_when_budget_exhausted():
    sim, kernel, bpf, proc, fd = make_faulted_chain(times=10)

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    # Not killed with EIO: handed back with the continuation.
    assert result.status == ChainStatus.FAULT_FALLBACK
    assert result.final_offset == 2 * 4096
    assert result.scratch is not None
    assert bpf.engine.fault_fallbacks == 1
    # Retries stopped at the driver's budget (4), not at episode length.
    assert bpf.engine.fault_retries == 4


def test_robust_read_recovers_through_fallbacks():
    sim, kernel, bpf, proc, fd = make_faulted_chain(times=10)

    def workload():
        result = yield from bpf.read_chain_robust(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == 1000 + ORDER[-1]
    assert bpf.engine.fault_fallbacks >= 1
    # All ten injected failures were consumed by bounded retries.
    assert kernel.fault_plan.injected[FAULT_TRANSIENT] == 10


def test_robust_read_raises_when_faults_never_recover():
    sim, kernel, bpf, proc, fd = make_faulted_chain(times=10 ** 6)

    def workload():
        yield from bpf.read_chain_robust(proc, fd, 0, 4096, max_retries=3)

    with pytest.raises(IoError, match="did not recover"):
        kernel.run_syscall(workload())


def test_resubmission_bound_limits_fault_retries():
    # Bound of 4 hops: the clean walk needs 3 recycles, so by the time
    # block 2 faults only one more resubmission is affordable — the bound
    # cuts the retry loop short well before the driver's budget of 4.
    sim, kernel, bpf, proc, fd = make_faulted_chain(times=10,
                                                    max_chain_hops=4)

    def workload():
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.status == ChainStatus.FAULT_FALLBACK
    assert 0 < bpf.engine.fault_retries < 4


def test_fault_stale_invalidation_recovers_via_refresh():
    spec = FaultSpec(seed=2, stale_interval_ns=40_000)
    sim, kernel, bpf = build_machine(fault_plan=spec)
    kernel.create_file("/list", linked_file_bytes(ORDER))
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        results = []
        for _ in range(20):
            result = yield from bpf.read_chain_robust(proc, fd, 0, 4096)
            results.append(result.value)
        return results

    values = kernel.run_syscall(workload())
    assert values == [1000 + ORDER[-1]] * 20
    assert kernel.fault_plan.injected[FAULT_STALE] > 0
    assert bpf.cache.invalidations >= kernel.fault_plan.injected[FAULT_STALE]
    assert bpf.engine.extent_aborts > 0


# ---------------------------------------------------------------------------
# Acceptance: determinism and metrics reconciliation
# ---------------------------------------------------------------------------

STRESS_SPEC = FaultSpec(seed=13, read_error_rate=0.08, error_burst=2,
                        timeout_rate=0.02, spike_rate=0.05, spike_factor=4.0)


def run_faulted_workload(iterations=40):
    """A chained-read workload under a moderately hostile plan."""
    sim, kernel, bpf = build_machine(fault_plan=STRESS_SPEC)
    kernel.create_file("/list", linked_file_bytes(ORDER))
    proc, fd = install_walker(sim, kernel, bpf, "/list")

    def workload():
        completed = 0
        for _ in range(iterations):
            result = yield from bpf.read_chain_robust(proc, fd, 0, 4096,
                                                      max_retries=32)
            assert result.value == 1000 + ORDER[-1]
            completed += 1
        return completed

    completed = kernel.run_syscall(workload())
    return sim, kernel, bpf, completed


def test_same_seed_same_plan_identical_trace(tmp_path):
    paths = []
    for run in range(2):
        path = tmp_path / f"trace-{run}.jsonl"
        with ObsSession(record_jsonl=True) as obs:
            run_faulted_workload()
        obs.write_trace_jsonl(str(path))
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert len(first) > 0


def test_metrics_reconcile_with_plan_counters():
    with ObsSession() as obs:
        sim, kernel, bpf, completed = run_faulted_workload()
    assert completed == 40
    plan = kernel.fault_plan
    assert plan.total_injected() > 0
    registry = obs.registry
    injected = registry.get("faults_injected_total")
    assert sum(s["value"] for s in injected.samples()) == \
        plan.total_injected()
    for kind in (FAULT_TRANSIENT, FAULT_TIMEOUT):
        assert injected.value(kind=kind) == plan.injected[kind]
    retries = registry.get("nvme_retries_total")
    assert sum(s["value"] for s in retries.samples()) == kernel.nvme_retries
    assert registry.get("nvme_timeouts_total").value() == \
        kernel.nvme_timeouts
    fallbacks = registry.get("chain_fallbacks_total")
    assert sum(s["value"] for s in fallbacks.samples()) == \
        bpf.engine.fault_fallbacks
    # Device-level books agree with the plan's.
    assert kernel.device.media_errors == plan.injected[FAULT_TRANSIENT]
    assert kernel.device.timeouts >= plan.injected[FAULT_TIMEOUT]


def run_power_loss_workload():
    """The mixed metadata workload cut at its third fsync, then recovered."""
    from repro.faults.crashpoints import _build_machine, _run_ops, \
        mixed_workload
    from repro.kernel import JournalConfig, fsck

    spec = FaultSpec(seed=13, power_loss_after_flushes=3, torn_write=1)
    kernel = _build_machine(seed=5, cache_depth=8,
                            journal=JournalConfig(journal_blocks=32),
                            spec=spec, capacity_sectors=1 << 18)
    run = _run_ops(kernel, mixed_workload(5), seed=5)
    assert run.crashed
    kernel.recover()
    assert fsck(kernel.fs).ok
    return kernel


def test_same_seed_same_power_loss_identical_recovery(tmp_path):
    """Same seed + same power-loss plan: the recovered media image and
    the exported trace are byte-identical across runs."""
    images, paths = [], []
    for run in range(2):
        path = tmp_path / f"crash-trace-{run}.jsonl"
        with ObsSession(record_jsonl=True) as obs:
            kernel = run_power_loss_workload()
        obs.write_trace_jsonl(str(path))
        paths.append(path)
        images.append(kernel.fs.media.image())
    assert images[0] == images[1]
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert len(first) > 0


# ---------------------------------------------------------------------------
# Network fault episodes (consumed by repro.net.fabric)
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_net_fields():
    with pytest.raises(InvalidArgument, match="net_drop_rate"):
        FaultSpec(net_drop_rate=1.5)
    with pytest.raises(InvalidArgument, match="net fault rates"):
        FaultSpec(net_drop_rate=0.7, net_delay_rate=0.5)
    with pytest.raises(InvalidArgument, match="net_drop_burst"):
        FaultSpec(net_drop_rate=0.1, net_drop_burst=0)
    with pytest.raises(InvalidArgument, match="net_delay_ns"):
        FaultSpec(net_delay_rate=0.1, net_delay_ns=-1)


def test_net_fields_parse_and_arm_any_faults():
    spec = parse_fault_spec("seed=5, net_drop_rate=0.25, net_drop_burst=3,"
                            "net_delay_rate=0.1, net_delay_ns=75000")
    assert spec == FaultSpec(seed=5, net_drop_rate=0.25, net_drop_burst=3,
                             net_delay_rate=0.1, net_delay_ns=75_000)
    assert isinstance(spec.net_drop_burst, int)
    assert isinstance(spec.net_delay_ns, int)
    assert spec.any_net_faults() and spec.any_faults()
    # Net-only specs arm any_faults() without arming media retries.
    media_only = FaultSpec(read_error_rate=0.1)
    assert not media_only.any_net_faults() and media_only.any_faults()


def test_net_drop_episode_burst_then_guaranteed_delivery():
    plan = FaultPlan(FaultSpec(net_drop_rate=1.0, net_drop_burst=3))
    key = ("client/c2s", 7)
    fates = [plan.net_decision(key, 0) for _ in range(5)]
    # The frame and two retransmissions are lost, then the cooldown
    # guarantees the next attempt through, then a fresh episode begins.
    assert fates == [FAULT_NET_DROP] * 3 + [None, FAULT_NET_DROP]
    assert plan.injected[FAULT_NET_DROP] == 4
    # Another request id on the same link is its own episode.
    assert plan.net_decision(("client/c2s", 8), 0) == FAULT_NET_DROP


def test_net_delay_is_partitioned_from_drop():
    plan = FaultPlan(FaultSpec(net_delay_rate=1.0, net_delay_ns=5_000))
    fates = [plan.net_decision(("wire", rid), 0) for rid in range(4)]
    assert fates == [FAULT_NET_DELAY] * 4
    assert plan.injected[FAULT_NET_DELAY] == 4
    assert plan.injected[FAULT_NET_DROP] == 0


def test_net_window_gates_draws():
    spec = FaultSpec(net_drop_rate=1.0, window_start_ns=1000,
                     window_end_ns=2000)
    plan = FaultPlan(spec)
    key = ("wire", 1)
    assert plan.net_decision(key, 0) is None
    assert plan.net_decision(key, 1500) == FAULT_NET_DROP
    # The in-window episode's cooldown is consumed...
    assert plan.net_decision(key, 1600) is None
    # ...and past the window nothing is drawn at all.
    assert plan.net_decision(key, 2500) is None


def test_net_stream_is_independent_of_media_stream():
    media_spec = FaultSpec(seed=11, read_error_rate=0.2)
    both_spec = FaultSpec(seed=11, read_error_rate=0.2, net_drop_rate=0.3,
                          net_delay_rate=0.3)

    def media_sequence(spec):
        plan = FaultPlan(spec, kernel_seed=4)
        out = []
        for lba in range(100):
            out.append(plan.media_decision(read_cmd(lba % 7), lba * 10))
            # Interleave net draws; they must not perturb media fates.
            plan.net_decision(("wire", lba), lba * 10)
        return out

    assert media_sequence(media_spec) == media_sequence(both_spec)

    def net_sequence(kernel_seed):
        plan = FaultPlan(both_spec, kernel_seed=kernel_seed)
        return [plan.net_decision(("wire", rid), rid * 10)
                for rid in range(100)]

    assert net_sequence(4) == net_sequence(4)
    assert net_sequence(4) != net_sequence(5)
