"""repro.qos: tenants, shapers, admission backpressure, fair sharing.

Covers the deterministic shaper primitives (token bucket, start-time-fair
WFQ), the QosManager policy surface (system-traffic bypass, per-tenant
counters, QoS tracepoints), the kernel-level acceptance criterion (two
backlogged tenants with 3:1 weights split device IOPS within 5 % of
3:1), wire-level EAGAIN backpressure with deterministic client backoff,
tenant-keyed chain accounting (the pid-leak regression), and the
``InstallRequest.vm_mode`` tier switch.
"""

import json

import pytest

from chainutil import (
    NVM2_EXACT,
    build_machine,
    install_walker,
    linked_file_bytes,
)
from repro.bench.experiments import tenants
from repro.bench.runner import NVM2_BENCH, BtreeBench
from repro.core import Hook
from repro.core.accounting import ChainAccounting
from repro.core.api import InstallRequest
from repro.core.library import index_traversal_program
from repro.errors import Errno, InvalidArgument, QosRejected, RemoteError
from repro.device import NAND_SSD
from repro.faults import FaultSpec
from repro.kernel import IoUring, JournalConfig, KernelConfig
from repro.kernel.process import Process
from repro.net import (
    Connection,
    NetConfig,
    NetworkFabric,
    StorageTarget,
    wire,
)
from repro.net.client import MAX_QOS_RETRIES
from repro.obs import SpanCollector, events as obs_events
from repro.obs.bus import TraceBus
from repro.qos import QosConfig, QosManager, Tenant
from repro.qos.shapers import SCALE, TokenBucket, WfqScheduler
from repro.sim import Simulator
from simutil import pending


# ---------------------------------------------------------------------------
# Token bucket
# ---------------------------------------------------------------------------


def test_token_bucket_take_grants_burst_then_refuses():
    bucket = TokenBucket(tokens_per_ms=1, burst=2, now_ns=0)
    assert bucket.take(0) == 0
    assert bucket.take(0) == 0
    retry = bucket.take(0)
    assert retry == SCALE  # one token = 1 ms = 1_000_000 ns at rate 1/ms


def test_token_bucket_refusal_consumes_nothing():
    bucket = TokenBucket(tokens_per_ms=1, burst=1, now_ns=0)
    assert bucket.take(0) == 0
    first = bucket.take(0)
    second = bucket.take(0)
    assert first == second > 0  # refused takes must not drain the level


def test_token_bucket_retry_after_is_exact():
    bucket = TokenBucket(tokens_per_ms=1, burst=1, now_ns=0)
    assert bucket.take(0) == 0
    retry = bucket.take(0)
    # One tick early the take still refuses; at exactly now + retry it
    # succeeds — the advertised retry_after_ns is tight, not a hint.
    assert bucket.take(retry - 1) > 0
    assert bucket.take(retry) == 0


def test_token_bucket_pace_accrues_debt():
    bucket = TokenBucket(tokens_per_ms=1, burst=1, now_ns=0)
    assert bucket.pace(0) == 0  # burst token
    delays = [bucket.pace(0) for _ in range(3)]
    assert delays == sorted(delays)  # monotone growth under sustained rate
    assert delays[0] == SCALE and delays[-1] == 3 * SCALE


def test_token_bucket_level_caps_at_capacity():
    bucket = TokenBucket(tokens_per_ms=10, burst=2, now_ns=0)
    bucket.take(0)
    bucket._advance(10 ** 12)  # a long idle period refills to burst only
    assert bucket.level == bucket.capacity
    assert bucket.take(10 ** 12) == 0
    assert bucket.take(10 ** 12) == 0
    assert bucket.take(10 ** 12) > 0


def test_token_bucket_validates_parameters():
    with pytest.raises(InvalidArgument):
        TokenBucket(tokens_per_ms=0, burst=1)
    with pytest.raises(InvalidArgument):
        TokenBucket(tokens_per_ms=1, burst=0)


# ---------------------------------------------------------------------------
# Weighted-fair queueing
# ---------------------------------------------------------------------------


def weights_3_to_1(key):
    return {"a": 3, "b": 1}.get(key, 1)


def test_wfq_backlogged_flows_split_by_weight():
    wfq = WfqScheduler(weights_3_to_1)
    for index in range(400):
        wfq.push("a", ("a", index))
        wfq.push("b", ("b", index))
    served = [wfq.pop()[0] for _ in range(160)]
    # Start-time-fair queueing makes the 3:1 split exact over any
    # window that is a multiple of weight_a + weight_b dispatches.
    assert served.count("a") == 120
    assert served.count("b") == 40


def test_wfq_dispatch_order_is_deterministic():
    def run():
        wfq = WfqScheduler(weights_3_to_1)
        for index in range(50):
            wfq.push("b", ("b", index))
            wfq.push("a", ("a", index))
        return [wfq.pop() for _ in range(100)]

    assert run() == run()


def test_wfq_is_work_conserving():
    wfq = WfqScheduler(weights_3_to_1)
    for index in range(4):
        wfq.push("a", index)
    for index in range(8):
        wfq.push("b", index)
    served = [wfq.pop()[0] for _ in range(12)]
    # Once the weight-3 flow drains, the weight-1 flow gets every slot —
    # an idle flow's share is redistributed, never reserved.
    assert served.count("a") == 4
    assert served[-6:] == ["b"] * 6


def test_wfq_tracks_per_flow_depth():
    wfq = WfqScheduler(weights_3_to_1)
    assert wfq.push("a", 1) == 1
    assert wfq.push("a", 2) == 2
    assert wfq.push("b", 1) == 1
    wfq.pop()
    assert wfq.key_depth == {"a": 1, "b": 1}
    wfq.pop()
    wfq.pop()
    assert wfq.key_depth == {}


# ---------------------------------------------------------------------------
# QosConfig / Tenant validation
# ---------------------------------------------------------------------------


def test_tenant_validation():
    with pytest.raises(InvalidArgument, match="name"):
        Tenant("")
    with pytest.raises(InvalidArgument, match="weight"):
        Tenant("t", weight=0)
    with pytest.raises(InvalidArgument, match="admit_tokens_per_ms"):
        Tenant("t", admit_tokens_per_ms=0)


def test_qos_config_validation_and_lookup():
    with pytest.raises(InvalidArgument, match="duplicate"):
        QosConfig(tenants=(Tenant("t"), Tenant("t")))
    config = QosConfig(tenants=(Tenant("a", weight=3),), default_weight=2,
                       system_weight=9)
    assert config.weight_of("a") == 3
    assert config.weight_of("undeclared") == 2  # default weight
    assert config.weight_of(None) == 9          # kernel-internal traffic
    assert config.tenant("a").weight == 3
    assert config.tenant("undeclared").weight == 2


# ---------------------------------------------------------------------------
# QosManager policy
# ---------------------------------------------------------------------------


def make_manager(config, now=(0,)):
    clock = lambda: now[0]  # noqa: E731 - mutable closure clock
    return QosManager(config, clock=clock)


def test_manager_admit_refuses_over_rate_and_counts():
    config = QosConfig(tenants=(Tenant("t"),), admit_tokens_per_ms=1,
                       admit_burst=2)
    manager = make_manager(config)
    assert manager.admit("t") == 0
    assert manager.admit("t") == 0
    retry = manager.admit("t")
    assert retry > 0
    assert manager.admit("t") == retry  # refusal consumed nothing
    assert manager.admitted == {"t": 2}
    assert manager.admit_rejected == {"t": 2}


def test_manager_system_traffic_is_never_refused():
    config = QosConfig(admit_tokens_per_ms=1, admit_burst=1)
    manager = make_manager(config)
    for _ in range(10):
        assert manager.admit(None) == 0
    assert manager.admit_rejected == {}


def test_manager_per_tenant_rate_overrides_config():
    config = QosConfig(
        tenants=(Tenant("slow", admit_tokens_per_ms=1, admit_burst=1),),
        admit_tokens_per_ms=0)  # admission globally off...
    manager = make_manager(config)
    assert manager.admit("fast") == 0  # ...so undeclared tenants sail
    assert manager.admit("fast") == 0
    assert manager.admit("slow") == 0  # ...but the override still bites
    assert manager.admit("slow") > 0


def test_manager_chain_pace_shapes_only_tenants():
    config = QosConfig(tenants=(Tenant("t", weight=2),),
                       chain_tokens_per_ms=1, chain_burst=1)
    manager = make_manager(config)
    assert manager.chain_pace(None) == 0  # untenanted chains never paced
    assert manager.chain_pace("t") == 0   # burst
    delay = manager.chain_pace("t")
    # Rate scales with weight: 2 tokens/ms -> half a ms per excess token.
    assert delay == SCALE // 2
    assert manager.chain_throttles == {"t": 1}
    assert manager.chain_throttle_ns == {"t": delay}


def test_manager_emits_qos_tracepoints():
    bus = TraceBus(enabled=True)
    events = []
    bus.subscribe(lambda event: events.append(event))
    config = QosConfig(tenants=(Tenant("t"),), admit_tokens_per_ms=1,
                       admit_burst=1, chain_tokens_per_ms=1, chain_burst=1)
    manager = QosManager(config, bus=bus, clock=lambda: 42)
    manager.admit("t")
    manager.admit("t")       # -> qos_admit_reject
    manager.chain_pace("t")
    manager.chain_pace("t")  # -> qos_throttle
    manager.note_depth(0, "t", 3)
    manager.note_depth(1, None, 1)
    kinds = [event.etype for event in events]
    assert kinds == [obs_events.QOS_ADMIT_REJECT, obs_events.QOS_THROTTLE,
                     obs_events.QOS_TENANT_DEPTH, obs_events.QOS_TENANT_DEPTH]
    assert events[0].fields["tenant"] == "t"
    assert events[0].fields["retry_after_ns"] > 0
    assert events[-1].fields["tenant"] == "_system"


# ---------------------------------------------------------------------------
# Kernel integration: weighted IOPS split (the acceptance criterion)
# ---------------------------------------------------------------------------


def run_weighted_split(duration_ns=4_000_000, threads=16, seed=5):
    """Two backlogged tenants (weights 3:1) hammer one device.

    16 closed-loop threads per tenant keeps *both* flows continuously
    backlogged at the submission queue (device parallelism is 7) —
    start-time-fair queueing only guarantees the weighted split for
    flows that always have work queued.
    """
    qos = QosConfig(tenants=(Tenant("a", weight=3), Tenant("b", weight=1)))
    bench = BtreeBench(depth=3, cores=8, seed=seed, qos=qos)
    sim = bench.sim
    counts = {"a": 0, "b": 0}
    workers = {"a": bench.chain_worker(Hook.NVME, tenant="a"),
               "b": bench.chain_worker(Hook.NVME, tenant="b")}

    def loop(tenant, index):
        one_op = yield from workers[tenant](index)
        while sim.now < duration_ns:
            yield from one_op()
            counts[tenant] += 1

    for index in range(threads):
        sim.spawn(loop("a", index), name=f"a-{index}")
        sim.spawn(loop("b", threads + index), name=f"b-{index}")
    sim.run(until=duration_ns)
    return counts, bench


def test_weighted_tenants_split_iops_3_to_1():
    counts, _bench = run_weighted_split()
    assert counts["b"] > 50  # both tenants made real progress
    ratio = counts["a"] / counts["b"]
    # ISSUE acceptance: weights 3:1 yield an IOPS split within 5 % of 3:1.
    assert abs(ratio - 3.0) <= 0.15, ratio


def test_weighted_split_is_deterministic():
    first, _ = run_weighted_split(duration_ns=1_000_000)
    second, _ = run_weighted_split(duration_ns=1_000_000)
    assert first == second


def test_tenants_experiment_is_deterministic():
    kwargs = dict(chain_depth=4, victim_threads=1, aggressor_threads=8,
                  duration_ns=500_000)
    first = tenants(**kwargs)
    second = tenants(**kwargs)
    assert json.dumps(first) == json.dumps(second)


# ---------------------------------------------------------------------------
# Wire backpressure: EAGAIN + deterministic client backoff
# ---------------------------------------------------------------------------


def build_qos_rig(qos, rtt_us=10, seed=7, tenant=None):
    sim = Simulator()
    target = StorageTarget(sim, model=NVM2_BENCH,
                           config=KernelConfig(cores=4, seed=seed, qos=qos))
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=rtt_us * 1000 // 2,
                                          seed=seed))
    client = target.connect(fabric, "client", tenant=tenant)
    target.create_file("/x", bytes(4096))
    return sim, target, client.connection, client


def drive_reads(sim, client, count):
    def driver():
        for _ in range(count):
            data = yield from client.read("/x", 0, 512)
            assert len(data) == 512

    sim.run_process(driver())


def test_remote_client_backs_off_on_eagain_and_completes():
    qos = QosConfig(admit_tokens_per_ms=1, admit_burst=2)
    sim, target, _conn, client = build_qos_rig(qos)
    drive_reads(sim, client, 6)
    # Burst admits 2; each later read is refused once, sleeps the
    # advertised retry_after_ns, and succeeds on the retry.
    assert client.qos_backoffs == 4
    assert target.refused == {"EAGAIN": 4}
    assert target.kernel.qos.admit_rejected == {"client": 4}
    assert target.kernel.qos.admitted == {"client": 6}
    # Backoff is paid in simulated time: ~1 ms per refill at 1 token/ms.
    assert sim.now > 4 * SCALE


def test_wire_backpressure_is_deterministic():
    def run():
        qos = QosConfig(admit_tokens_per_ms=1, admit_burst=2)
        sim, _target, _conn, client = build_qos_rig(qos)
        drive_reads(sim, client, 6)
        return sim.now, client.qos_backoffs

    assert run() == run()


def test_remote_client_surfaces_qos_rejected_after_max_retries():
    qos = QosConfig(admit_tokens_per_ms=1, admit_burst=1)
    sim, target, _conn, client = build_qos_rig(qos)
    # A target that never relents: every admit refuses with the same
    # retry-after, so the client exhausts its budget and raises typed.
    target.kernel.qos.admit = lambda tenant, cost=1: 777
    with pytest.raises(QosRejected) as excinfo:
        drive_reads(sim, client, 1)
    assert excinfo.value.errno is Errno.EAGAIN
    assert excinfo.value.retry_after_ns == 777
    assert excinfo.value.tenant == "client"
    assert client.qos_backoffs == MAX_QOS_RETRIES == 8


def test_system_connections_bypass_admission():
    qos = QosConfig(admit_tokens_per_ms=1, admit_burst=1)
    sim, target, _conn, client = build_qos_rig(qos, tenant="")
    # tenant="" is the infrastructure escape hatch: the connection's
    # process is untenanted and admission control never refuses it.
    assert target._clients["client"].proc.tenant is None
    drive_reads(sim, client, 8)
    assert client.qos_backoffs == 0
    assert target.refused == {}


def test_attach_defaults_tenant_to_connection_name_under_qos():
    qos = QosConfig(tenants=(Tenant("client", weight=5),))
    _sim, target, _conn, _client = build_qos_rig(qos)
    proc = target._clients["client"].proc
    assert proc.tenant is not None
    assert proc.tenant.name == "client"
    assert proc.tenant.weight == 5  # the declared Tenant, not a default

    # Without QoS armed, attach() keeps the pre-tenant behaviour.
    sim = Simulator()
    plain = StorageTarget(sim, model=NVM2_BENCH,
                          config=KernelConfig(cores=4, seed=7))
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=5000, seed=7))
    plain.attach(Connection(fabric, "client"))
    assert plain._clients["client"].proc.tenant is None


def test_qos_reject_wire_roundtrip():
    body = wire.encode_body(wire.QOS_REJECT, (12345, "alice", "over rate"))
    assert wire.decode_body(wire.QOS_REJECT, body) == \
        (12345, "alice", "over rate")
    with pytest.raises(QosRejected) as excinfo:
        wire.raise_for_status(wire.STATUS_EAGAIN, body)
    assert excinfo.value.retry_after_ns == 12345
    assert excinfo.value.tenant == "alice"
    assert "over rate" in str(excinfo.value)
    # Non-EAGAIN statuses keep the plain reason-string contract.
    with pytest.raises(RemoteError) as excinfo:
        wire.raise_for_status(wire.status_for_errno("ENOENT"), b"gone")
    assert excinfo.value.remote_errno is Errno.ENOENT


# ---------------------------------------------------------------------------
# Tenant-keyed accounting (pid-leak regression)
# ---------------------------------------------------------------------------


def test_accounting_keys_by_tenant_across_incarnations():
    accounting = ChainAccounting()
    first = Process(1, "net-client", tenant=Tenant("alice"))
    for _ in range(3):
        accounting.charge(first)
    # A respawned process for the same tenant (new pid) reuses the row.
    second = Process(9, "net-client", tenant=Tenant("alice"))
    accounting.charge(second)
    assert accounting.totals == {"alice": 4}
    assert pending(accounting, second) == 4
    # Untenanted processes still account by pid.
    plain = Process(2, "legacy")
    accounting.charge(plain)
    assert accounting.totals == {"alice": 4, 2: 1}


def test_accounting_forget_clears_every_row():
    accounting = ChainAccounting()
    proc = Process(7, "net-client", tenant=Tenant("alice"))
    accounting.charge(proc)
    accounting.record_kill(proc)
    accounting.forget(proc)
    assert accounting.totals == {}
    assert accounting.chains_killed == {}
    assert pending(accounting, proc) == 0


def test_exec_chain_bills_the_connection_tenant():
    qos = QosConfig(tenants=(Tenant("client", weight=2),))
    sim, target, _conn, client = build_qos_rig(qos)
    from repro.structures import BTree, FsBackend

    inode = target.kernel.fs.create("/index")
    items = [(key * 3 + 1, key) for key in range(40)]
    BTree.build(FsBackend(target.kernel.fs, inode), items, fanout=4)
    tree = BTree(FsBackend(target.kernel.fs, inode))
    program = index_traversal_program(fanout=4)

    def driver():
        chain_id = yield from client.install_chain("/index", program)
        result = yield from client.exec_chain(
            chain_id, tree.meta.root_offset, args=(items[10][0],))
        assert result.ok

    sim.run_process(driver())
    # Resubmissions are charged to the tenant name, not the pid.
    assert "client" in target.accounting.totals
    assert target.accounting.totals["client"] > 0


# ---------------------------------------------------------------------------
# InstallRequest.vm_mode: the one execution-tier switch
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def program():
    return index_traversal_program(fanout=4)


def test_install_request_defaults_to_block_without_warning(program,
                                                           recwarn):
    request = InstallRequest(program)
    assert request.vm_mode == "block"
    assert not any(isinstance(w.message, DeprecationWarning)
                   for w in recwarn.list)


def test_install_request_rejects_unknown_vm_mode(program):
    # 'jit' named a third tier once; it is as unknown as any other now.
    for mode in ('turbo', 'jit'):
        with pytest.raises(InvalidArgument, match="vm_mode"):
            InstallRequest(program, vm_mode=mode)


def test_install_request_has_no_jit_keyword(program):
    with pytest.raises(TypeError, match="unexpected keyword argument 'jit'"):
        InstallRequest(program, jit=True)


# ---------------------------------------------------------------------------
# Typed errno surface
# ---------------------------------------------------------------------------


def test_errno_mapping():
    assert Errno.from_name("EINVAL") is Errno.EINVAL
    assert Errno.from_name("EWHATEVER") is Errno.EREMOTE
    assert Errno.EAGAIN == 11


def test_qos_rejected_is_typed_eagain():
    error = QosRejected(retry_after_ns=500, tenant="t")
    assert error.errno is Errno.EAGAIN
    assert error.retry_after_ns == 500
    assert "retry after 500 ns" in str(error)


# ---------------------------------------------------------------------------
# Tag completeness: every command a tenanted process causes is built at the
# one submission site (Kernel.post / Kernel.repost)
# ---------------------------------------------------------------------------


def drive_every_entry_point(model, retry, bus):
    """One tenanted process drives every kernel entry point that reaches
    the device; returns ``(kernel, proc, commands, latency)`` where
    ``commands`` holds one ``(step, snapshot)`` per ``NvmeDevice.submit``,
    taken at submit time (recycled descriptors are mutated afterwards),
    and ``latency`` maps each step, in order, to the ns it took as its
    caller measured it."""
    order = list(range(11))
    sim, kernel, bpf = build_machine(
        model=model, bus=bus, seed=3, queue_pairs=2, max_extent_blocks=2,
        fault_plan=FaultSpec() if retry else None,
        journal=JournalConfig(journal_blocks=32),
        qos=QosConfig(tenants=(Tenant("gold", weight=4),)))
    # 4 KiB reads of /list never split (recycled hops); 8 KiB reads of
    # /wide cross a two-block extent boundary at every odd block.
    kernel.create_file("/list", linked_file_bytes([3, 0, 2, 1]))
    kernel.create_file("/wide", linked_file_bytes(order) + bytes(4096))
    proc = kernel.spawn_process("t", tenant="gold")
    assert kernel.queue_for(proc) == 1  # not the default queue
    _, fd = install_walker(sim, kernel, bpf, "/list", proc=proc)
    _, wide = install_walker(sim, kernel, bpf, "/wide", proc=proc,
                             block_size=8192)
    commands = []
    step = [None]
    submit = kernel.device.submit

    def spy(command):
        commands.append((step[0], dict(
            opcode=command.opcode, source=command.source,
            tenant=command.tenant, queue=command.queue, span=command.span,
            path=command.path, driver_ns=command.driver_ns)))
        submit(command)

    kernel.device.submit = spy

    def uring(offset, tagged, target=fd, length=4096):
        ring = IoUring(kernel, proc)
        ring.prep_read(target, offset, length, tagged=tagged)
        return ring.enter(wait_nr=1)

    steps = [
        ("pread", lambda: kernel.sys_pread(proc, fd, 0, 4096)),
        ("pread_split", lambda: kernel.sys_pread(proc, wide, 4096, 8192)),
        ("pwrite", lambda: kernel.sys_pwrite(proc, fd, 16 * 4096,
                                             b"w" * 4096)),
        ("fsync", lambda: kernel.sys_fsync(proc, fd)),
        ("uring_plain", lambda: uring(0, tagged=False)),
        ("uring_chain", lambda: uring(3 * 4096, tagged=True)),
        ("uring_split", lambda: uring(4096, True, wide, 8192)),
        ("chain", lambda: bpf.read_chain(proc, fd, 3 * 4096, 4096)),
        # First hop maps to one extent, the second hop splits mid-chain.
        ("chain_mid_split", lambda: bpf.read_chain(proc, wide, 0, 8192)),
        ("chain_first_split", lambda: bpf.read_chain(proc, wide, 4096,
                                                     8192)),
    ]
    latency = {}

    def timed(name, op):
        start = sim.now
        yield from op
        latency[name] = sim.now - start

    for name, make in steps:
        step[0] = name
        kernel.run_syscall(timed(name, make()))
    return kernel, proc, commands, latency


@pytest.mark.parametrize("retry", [False, True], ids=["plain", "retry"])
@pytest.mark.parametrize("model", [NVM2_EXACT, NAND_SSD],
                         ids=["polling", "interrupt"])
def test_every_command_carries_its_tenant_and_queue(model, retry):
    kernel, proc, commands, _ = drive_every_entry_point(
        model, retry, TraceBus(enabled=False))
    by_step = {}
    for name, snap in commands:
        by_step.setdefault(name, []).append(snap)
    # Every entry point reached the device, the split ones more than once
    # and the chains through recycled descriptors.
    assert len(by_step) == 10
    for name in ("pread_split", "uring_split", "chain_first_split"):
        assert len(by_step[name]) == 2, name
    assert [s["source"] for s in by_step["chain"]] == \
        ["bio", "bpf-recycle", "bpf-recycle", "bpf-recycle"]
    assert [s["source"] for s in by_step["uring_chain"]] == \
        ["bio", "bpf-recycle", "bpf-recycle", "bpf-recycle"]
    assert [s["source"] for s in by_step["chain_mid_split"]] == \
        ["bio", "bio", "bio"]
    assert {s["opcode"] for s in by_step["fsync"]} == {"flush", "write"}
    untagged = []
    for name, snap in commands:
        internal = snap["opcode"] == "flush" or snap["source"] == "journal"
        if snap["tenant"] != (None if internal else "gold"):
            untagged.append((name, snap["opcode"], snap["source"]))
        assert snap["queue"] == kernel.queue_for(proc), (name, snap)
        # Bus off: the observability fields keep their defaults.
        assert (snap["span"], snap["path"], snap["driver_ns"]) == \
            (0, "normal", 0), (name, snap)
    assert untagged == []


def test_every_command_is_stamped_with_span_path_and_driver_cost():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus, max_roots=1 << 16)
    kernel, proc, commands, _ = drive_every_entry_point(NAND_SSD, False, bus)
    expected = {  # step -> (path, names of the spans its commands ride)
        "pread": ("normal", {"sys_pread"}),
        "pread_split": ("normal", {"sys_pread"}),
        "pwrite": ("write", {"sys_pwrite"}),
        "fsync": ("write", {"sys_fsync"}),
        "uring_plain": ("uring", {"uring_sqe"}),
        "uring_chain": ("chain", {"read_chain", "chain_hop"}),
        "uring_split": ("chain", {"read_chain"}),
        "chain": ("chain", {"read_chain", "chain_hop"}),
        "chain_mid_split": ("chain", {"read_chain", "chain_hop"}),
        "chain_first_split": ("chain", {"read_chain"}),
    }
    span_name = {node.sid: node.name
                 for root in spans.roots for node in root.walk()}
    seen = {}
    for name, snap in commands:
        assert snap["driver_ns"] == kernel.cost.nvme_driver_ns, (name, snap)
        assert snap["path"] == expected[name][0], (name, snap)
        seen.setdefault(name, set()).add(span_name[snap["span"]])
    assert seen == {name: names for name, (_, names) in expected.items()}


@pytest.mark.parametrize("retry", [False, True], ids=["plain", "retry"])
@pytest.mark.parametrize("model", [NVM2_EXACT, NAND_SSD],
                         ids=["polling", "interrupt"])
def test_every_entry_point_closes_a_whole_ledger(model, retry):
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus, max_roots=1 << 16)
    kernel, proc, commands, latency = drive_every_entry_point(model, retry,
                                                              bus)
    # One root per step, opened before its first charge, in step order.
    assert spans.ops == {"normal": 2, "write": 2, "uring": 1, "chain": 5}
    assert len(spans.roots) == len(latency)
    for (name, took), root in zip(latency.items(), spans.roots):
        # Every ns of the operation lands in exactly one layer.
        assert sum(root.ledger.values()) == root.duration_ns, name
        assert "unattributed" not in root.ledger, (name, root.ledger)
        if name.startswith("uring"):
            # io_uring_enter and the reap are the batch's, not the SQE's.
            assert root.duration_ns < took, name
        else:
            assert root.duration_ns == took, name
    assert spans.unattributed == []
