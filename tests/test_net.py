"""repro.net: wire codecs, transport reliability, target ops, pushdown.

Covers the frame envelope and per-op codecs (round trips + hostile
input), plain remote I/O, the BPF-oF acceptance criteria (server-side
re-verification refusing unsafe programs with a typed error; pushdown
beating naive by ~the hop count at high RTT; one EXEC_CHAIN RPC vs
depth READ RPCs), drop recovery with request-id dedup (exactly-once
execution), the bounded in-flight window, and determinism.
"""

import pytest

from repro.bench.runner import NVM2_BENCH, load_btree
from repro.core.hooks import storage_ctx_layout
from repro.core.library import index_traversal_program
from repro.ebpf import Program, assemble
from repro.ebpf.isa import encode as encode_instructions
from repro.errors import (
    Errno,
    FramingError,
    InvalidArgument,
    PowerLossError,
    RemoteError,
    RemoteVerifierRejected,
    RpcTimeout,
)
from repro.faults import FaultPlan, FaultSpec
from repro.kernel import KernelConfig
from repro.net import NetConfig, NetworkFabric, StorageTarget, wire
from repro.net.fabric import serialize_ns
from repro.qos import QosConfig, Tenant
from repro.sim import Simulator
from repro.structures.pages import PAGE_SIZE
from shuffled_dispatch import shuffle_immediate


def build_rig(rtt_us=20, seed=7, plan=None, **conn_kwargs):
    """One client <-> one target over a fresh fabric; returns the parts."""
    sim = Simulator()
    target = StorageTarget(sim, model=NVM2_BENCH,
                           config=KernelConfig(cores=4, seed=seed))
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=rtt_us * 1000 // 2,
                                          seed=seed), plan=plan)
    client = target.connect(fabric, "client", **conn_kwargs)
    return sim, target, fabric, client.connection, client


def build_tree(target, depth):
    """A depth-``depth`` B-tree at ``/index``; returns (root, fanout, n)."""
    meta = load_btree(target.kernel.fs, "/index", depth).meta
    return meta.root_offset, meta.fanout, meta.num_keys


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_frame_roundtrip():
    frame = wire.encode_frame(wire.OP_READ, 42, b"body")
    op, status, request_id, body = wire.decode_frame(frame)
    assert (op, status, request_id, body) == (wire.OP_READ, wire.STATUS_OK,
                                              42, b"body")
    reply = wire.encode_frame(wire.OP_READ | wire.REPLY, 42, b"nope",
                              status=wire.status_for_errno("EIO"))
    op, status, request_id, body = wire.decode_frame(reply)
    assert op & wire.REPLY
    assert wire.STATUS_NAMES[status] == "EIO"


def test_frame_rejects_hostile_input():
    good = wire.encode_frame(wire.OP_READ, 1, b"x")
    with pytest.raises(FramingError, match="short"):
        wire.decode_frame(good[:10])
    with pytest.raises(FramingError, match="length prefix"):
        wire.decode_frame(good + b"trailing")
    bad_magic = good[:4] + b"\x00\x00" + good[6:]
    with pytest.raises(FramingError, match="magic"):
        wire.decode_frame(bad_magic)
    for code in (0x55, 2):      # 2 was a remote write; no row has it now
        bad_op = good[:6] + bytes([code]) + good[7:]
        with pytest.raises(FramingError, match=f"unknown op {code}$"):
            wire.decode_frame(bad_op)


WALK = assemble("mov r0, 7\nlddw r1, 0x1122334455667788\nexit")
U64_MAX = 2 ** 64 - 1


def _request(op):
    return wire.OPS[op].request


def _reply(op):
    return wire.OPS[op].reply


#: (layout, fields, pinned hex) for every message in the op table.  The
#: hex strings were captured from the per-op ``encode_*`` functions the
#: table replaced (commit 799cc80), so they pin byte identity: frame
#: sizes feed fabric transit time, and a changed byte changes simulated
#: results.
SAMPLES = [
    (_request(wire.OP_READ), ("/a", 4096, 512),
     "00022f61000000000000100000000200"),
    (_reply(wire.OP_READ), (b"data",), "0000000464617461"),
    (_request(wire.OP_INSTALL_CHAIN),
     ("/index", "nvme", 4096, 256, "walk", WALK),
     "00062f696e64657800046e766d650000100000000100000477616c6b00000020"
     "b700000007000000180100008877665500000000443322119500000000000000"),
    (_reply(wire.OP_INSTALL_CHAIN), (3,), "00000003"),
    (_request(wire.OP_EXEC_CHAIN), (3, 8192, 4096, (10, U64_MAX)),
     "0000000300000000000020000000100002000000000000000affffffffffffffff"),
    (_request(wire.OP_EXEC_CHAIN), (3, 8192, 4096, ()),
     "0000000300000000000020000000100000"),
    (_reply(wire.OP_EXEC_CHAIN), ("ok", 4, (99, 1), b"page"),
     "00026f6b0000000403000000000000006300000000000000010000000470616765"),
    (_reply(wire.OP_EXEC_CHAIN), ("error", 1, (None, U64_MAX - 1), b""),
     "00056572726f720000000102fffffffffffffffe00000000"),
    (_reply(wire.OP_EXEC_CHAIN), ("error", 1, (None, None), b""),
     "00056572726f72000000010000000000"),
    (_request(wire.OP_PUT), (11, U64_MAX),
     "000000000000000bffffffffffffffff"),
    (_reply(wire.OP_PUT), (5,), "0000000000000005"),
    (_request(wire.OP_GET), (11,), "000000000000000b"),
    (_reply(wire.OP_GET), (True, 5, 77),
     "010000000000000005000000000000004d"),
    (_request(wire.OP_REPLICATE), (11, 5, 11 * 512, b"\x01\x02\x03"),
     "000000000000000b0000000000000005000000000000160000000003010203"),
    (_reply(wire.OP_REPLICATE), (5,), "0000000000000005"),
    (_request(wire.OP_COMPACT), ("/db/out", True, ["/db/a", "/db/\u00e9"]),
     "00072f64622f6f757401000200052f64622f6100062f64622fc3a9"),
    (_reply(wire.OP_COMPACT), (10, 2, 8, 4096, 6),
     "000000000000000a0000000000000002000000000000000800000000000010"
     "000000000000000006"),
    (wire.QOS_REJECT, (12345, "alice", "over rate"),
     "00000000000030390005616c6963656f7665722072617465"),
]


def test_samples_cover_every_row_of_the_op_table():
    covered = {id(layout) for layout, _fields, _hex in SAMPLES}
    for row in wire.OPS.values():
        assert id(row.request) in covered, row.name
        assert id(row.reply) in covered, row.name
    assert wire.OP_NAMES == {code: row.name
                             for code, row in wire.OPS.items()}
    assert sorted(wire.OPS) == [1, 3, 4, 5, 6, 7, 8]


def test_op_codecs_roundtrip():
    for layout, fields, _hex in SAMPLES:
        body = wire.encode_body(layout, fields)
        assert wire.decode_body(layout, body) == fields, layout


def test_wire_bytes_are_pinned():
    for layout, fields, pinned in SAMPLES:
        assert wire.encode_body(layout, fields).hex() == pinned, layout
    # EXEC_CHAIN args and reply values are masked to 64 bits, not refused.
    exec_chain = wire.OPS[wire.OP_EXEC_CHAIN]
    assert wire.encode_body(exec_chain.request, (3, 8192, 4096, (10, -1))) \
        == wire.encode_body(exec_chain.request,
                            (3, 8192, 4096, (10, U64_MAX)))
    assert wire.encode_body(exec_chain.reply, ("error", 1, (None, -2), b"")) \
        == wire.encode_body(exec_chain.reply,
                            ("error", 1, (None, U64_MAX - 1), b""))


def test_truncated_body_is_a_framing_error():
    for layout, fields, _hex in SAMPLES:
        body = wire.encode_body(layout, fields)
        # QOS_REJECT ends in the one rest-of-body field (the reason):
        # any tail is a reason, so only its fixed part can be cut short.
        open_ended = layout is wire.QOS_REJECT
        fixed = len(body) - len(fields[-1]) if open_ended else len(body)
        for cut in range(fixed):
            with pytest.raises(FramingError):
                wire.decode_body(layout, body[:cut])
        if not open_ended:
            with pytest.raises(FramingError, match="trailing"):
                wire.decode_body(layout, body + b"\x00")


def test_encode_range_errors_are_invalid_argument():
    read = wire.OPS[wire.OP_READ].request
    with pytest.raises(InvalidArgument):
        wire.encode_body(read, ("/a", -1, 512))             # negative u64
    with pytest.raises(InvalidArgument):
        wire.encode_body(read, ("x" * 65_536, 0, 512))      # str > u16
    with pytest.raises(InvalidArgument):
        wire.encode_body(wire.OPS[wire.OP_EXEC_CHAIN].request,
                         (1, 0, 4096, tuple(range(256))))    # args > u8
    with pytest.raises(InvalidArgument, match="takes 3 fields"):
        wire.encode_body(read, ("/a", 0))


def test_status_mapping():
    assert wire.status_for_errno("EVERIFY") == 1
    assert wire.STATUS_NAMES[wire.status_for_errno("ETOTALLYMADEUP")] == \
        "EREMOTE"
    wire.raise_for_status(wire.STATUS_OK, b"")
    with pytest.raises(RemoteVerifierRejected, match="program loops"):
        wire.raise_for_status(1, b"program loops")
    with pytest.raises(RemoteError, match="gone"):
        wire.raise_for_status(wire.status_for_errno("ENOENT"), b"gone")


# ---------------------------------------------------------------------------
# Plain remote I/O
# ---------------------------------------------------------------------------


def test_remote_errors_are_typed_not_crashes():
    sim, target, _fabric, _connection, client = build_rig()
    target.create_file("/data", bytes(8192))

    def missing():
        yield from client.read("/nope", 0, 512)

    with pytest.raises(RemoteError) as excinfo:
        sim.run_process(missing())
    assert excinfo.value.remote_errno is Errno.ENOENT

    def unaligned():
        yield from client.read("/data", 0, 64)

    with pytest.raises(RemoteError) as excinfo:
        sim.run_process(unaligned())
    assert excinfo.value.remote_errno is Errno.EINVAL
    assert target.refused == {"ENOENT": 1, "EINVAL": 1}

    # The target is still alive and serving after both refusals.
    def recheck():
        return (yield from client.read("/data", 0, 512))

    start = sim.now
    assert sim.run_process(recheck()) == bytes(512)
    assert target.executed == {"read": 1}
    # An RPC pays at least one round trip of propagation.
    assert sim.now - start >= 20_000


def test_hostile_requests_are_refused_and_target_keeps_serving():
    # Regression: each of the first three bodies used to escape the
    # target as UnicodeDecodeError / ValueError / KeyError and take the
    # whole simulation down; the fourth was served, junk and all.
    sim, target, fabric, connection, client = build_rig()
    target.create_file("/data", bytes(8192))
    good_read = wire.encode_body(_request(wire.OP_READ), ("/data", 0, 512))
    install = _request(wire.OP_INSTALL_CHAIN)
    slots = wire.encode_body(install, ("/data", "nvme", 4096, 256, "p", []))
    hostile = [
        (wire.OP_READ, b"\x00\x02\xff\xfe" + good_read[7:], "EBADMSG"),
        (wire.OP_INSTALL_CHAIN,
         wire.encode_body(install, ("/data", "bogus", 4096, 256, "p", WALK)),
         "EINVAL"),
        (wire.OP_INSTALL_CHAIN,
         slots[:-4] + b"\x00\x00\x00\x08" + b"\xff" * 8, "EINVAL"),
        (wire.OP_READ, good_read + b"junk", "EBADMSG"),
    ]

    def workload():
        statuses = []
        for op, body, _want in hostile:
            status, _reason = yield from connection.call(op, body)
            statuses.append(wire.STATUS_NAMES[status])
        # A *request* whose op byte has the REPLY bit set (0x81) passes
        # the frame envelope check but names no row of the op table; it
        # used to escape the target as KeyError.  No client stub can
        # send it, so it goes onto the link raw: the refusal comes back
        # for a request id nobody is waiting on.
        fabric.transmit(connection.c2s, wire.encode_frame(
            wire.OP_READ | wire.REPLY, 999, good_read), request_id=999)
        data = yield from client.read("/data", 0, 512)
        return statuses, data

    statuses, data = sim.run_process(workload())
    assert statuses == [want for _op, _body, want in hostile]
    assert data == bytes(512)
    assert target.refused == {"EBADMSG": 3, "EINVAL": 2}
    assert connection.stale_replies == 1 and connection.bad_frames == 0
    assert target.executed == {"read": 1}
    # The client-side view of the same refusals is typed, too.
    with pytest.raises(RemoteError) as excinfo:
        wire.raise_for_status(wire.status_for_errno("EBADMSG"), b"why")
    assert excinfo.value.remote_errno is Errno.EBADMSG


def test_ops_without_a_handler_or_a_table_row():
    # PUT is in the op table but only the cluster's target serves it: a
    # plain target answers EBADMSG.  A code outside the table never
    # reaches a handler: the frame is dropped and counted.
    sim, target, fabric, connection, client = build_rig(max_retries=0)

    def put():
        return (yield from connection.call(
            wire.OP_PUT, wire.encode_body(_request(wire.OP_PUT), (1, 2))))

    status, reason = sim.run_process(put())
    assert wire.STATUS_NAMES[status] == "EBADMSG"
    assert b"unknown op 5" in reason
    assert target.refused == {"EBADMSG": 1}

    for request_id, code in ((99, 0x33), (100, 2)):  # 2: no remote write
        frame = bytearray(wire.encode_frame(wire.OP_READ, request_id))
        frame[6] = code
        fabric.transmit(connection.c2s, bytes(frame), request_id=request_id)
    sim.run(until=sim.now + 1_000_000)
    assert connection.bad_frames == 2
    assert target.refused == {"EBADMSG": 1}
    assert target.executed == {}

    # The connection keeps serving after the dropped frames.
    target.create_file("/data", bytes(4096))

    def read():
        return (yield from client.read("/data", 0, 512))

    assert sim.run_process(read()) == bytes(512)
    assert target.executed == {"read": 1}


def test_target_rejects_duplicate_attach():
    sim, target, fabric, connection, _client = build_rig()
    with pytest.raises(InvalidArgument, match="already attached"):
        target.attach(connection)


def test_connect_attaches_and_hands_back_the_client():
    sim, target, fabric, connection, client = build_rig(window=2)
    assert connection.name == "client"
    assert target._clients["client"].proc.tenant is None   # no QoS armed
    with pytest.raises(InvalidArgument, match="already attached"):
        target.connect(fabric, "client")

    # Under QoS, connect() applies attach()'s tenant rules unchanged.
    qos = QosConfig(tenants=(Tenant("alice", weight=3),))
    armed = StorageTarget(sim, model=NVM2_BENCH,
                          config=KernelConfig(cores=4, seed=7, qos=qos))
    alice = armed.connect(fabric, "alice")
    assert alice.connection.name == "alice"
    assert armed._clients["alice"].proc.tenant.weight == 3  # None -> name
    armed.connect(fabric, "repl", tenant="")
    assert armed._clients["repl"].proc.tenant is None       # system share
    armed.connect(fabric, "bob-conn", tenant="alice")
    assert armed._clients["bob-conn"].proc.tenant.name == "alice"


# ---------------------------------------------------------------------------
# INSTALL_CHAIN: server-side re-verification
# ---------------------------------------------------------------------------


def test_unsafe_program_is_refused_with_reason():
    sim, target, _fabric, _connection, client = build_rig()
    build_tree(target, depth=2)
    good = index_traversal_program()
    bad = Program(assemble("mov r0, r7\nexit"),
                  storage_ctx_layout(PAGE_SIZE, 256), name="evil")

    def install_bad():
        yield from client.install_chain("/index", bad)

    with pytest.raises(RemoteVerifierRejected) as excinfo:
        sim.run_process(install_bad())
    assert "uninitialised" in excinfo.value.reason
    assert target.refused == {"EVERIFY": 1}
    assert target.executed.get("install_chain") is None

    # The refusal did not take the target down: a good program installs
    # and executes afterwards over the same connection.
    def install_good():
        chain_id = yield from client.install_chain("/index", good)
        return chain_id

    assert sim.run_process(install_good()) == 1
    assert target.executed["install_chain"] == 1


def test_unknown_action_is_refused_and_target_keeps_serving():
    # A verified program may still ask for an action no hook defines.  It
    # used to raise out of the target's chain interrupt and take the
    # whole fabric down; now the chain ends EINVAL and the RPC is refused.
    sim, target, _fabric, _connection, client = build_rig()
    target.create_file("/data", bytes(8192))
    rogue = Program(assemble("mov r2, 3\nstxdw [r1+72], r2\nmov r0, 0\n"
                             "exit"),
                    storage_ctx_layout(PAGE_SIZE, 256), name="rogue")

    def workload():
        chain_id = yield from client.install_chain("/data", rogue)
        try:
            yield from client.exec_chain(chain_id, 0)
        except RemoteError as error:
            refusal = error.remote_errno
        data = yield from client.read("/data", 0, 512)
        return refusal, data

    refusal, data = sim.run_process(workload())
    assert refusal is Errno.EINVAL
    assert data == bytes(512)
    assert target.refused == {"EINVAL": 1}


def test_exec_unknown_chain_id_is_refused():
    sim, _target, _fabric, _connection, client = build_rig()

    def workload():
        yield from client.exec_chain(99, 0, PAGE_SIZE, args=(1,))

    with pytest.raises(RemoteError) as excinfo:
        sim.run_process(workload())
    assert excinfo.value.remote_errno is Errno.EINVAL


# ---------------------------------------------------------------------------
# Naive vs pushdown GETs
# ---------------------------------------------------------------------------


def test_pushdown_beats_naive_by_hop_count_shape():
    depth, rtt_us = 4, 20
    sim, target, _fabric, connection, client = build_rig(rtt_us=rtt_us)
    root, fanout, num_keys = build_tree(target, depth)
    program = index_traversal_program(fanout=fanout)
    keys = [key * 3 + 1 for key in (0, num_keys // 2, num_keys - 1)]
    latencies = {"naive": [], "pushdown": []}

    def workload():
        chain_id = yield from client.install_chain("/index", program)
        for mode in ("naive", "pushdown"):
            for key in keys:
                start = sim.now
                value, found, rpcs = yield from client.remote_btree_get(
                    key, mode=mode, path="/index", root_offset=root,
                    chain_id=chain_id)
                assert found and value == (key - 1) // 3
                assert rpcs == (depth if mode == "naive" else 1)
                latencies[mode].append(sim.now - start)

    sim.run_process(workload())
    # RPC accounting: depth READs per naive GET, one EXEC_CHAIN per
    # pushdown GET (these are the client-issued frames, not retries).
    assert connection.rpcs_sent["read"] == depth * len(keys)
    assert connection.rpcs_sent["exec_chain"] == len(keys)
    naive_mean = sum(latencies["naive"]) / len(keys)
    push_mean = sum(latencies["pushdown"]) / len(keys)
    # Acceptance criterion: >= 2x at RTT >= 20 us and depth >= 4.
    assert naive_mean >= 2.0 * push_mean
    # A miss is still answered (found=False) rather than erroring.

    def miss():
        return (yield from client.remote_btree_get(
            0, mode="naive", path="/index", root_offset=root))

    value, found, _rpcs = sim.run_process(miss())
    assert (value, found) == (None, False)


def test_remote_btree_get_validates_arguments():
    _sim, _target, _fabric, _connection, client = build_rig()
    with pytest.raises(ValueError, match="path"):
        next(client.remote_btree_get(1, mode="naive"))
    with pytest.raises(ValueError, match="chain_id"):
        next(client.remote_btree_get(1, mode="pushdown"))
    with pytest.raises(ValueError, match="unknown mode"):
        next(client.remote_btree_get(1, mode="psychic"))


# ---------------------------------------------------------------------------
# Loss, retry, and exactly-once execution
# ---------------------------------------------------------------------------


def test_drop_recovery_executes_exactly_once():
    # Every frame's first transmission drops (rate 1.0, burst 1), then
    # the per-(link, request-id) cooldown guarantees the retransmission
    # gets through — so recovery is deterministic regardless of seed.
    plan = FaultPlan(FaultSpec(seed=3, net_drop_rate=1.0), kernel_seed=3)
    sim, target, _fabric, connection, client = build_rig(plan=plan)
    build_tree(target, depth=2)

    def workload():
        chain_id = yield from client.install_chain(
            "/index", index_traversal_program())
        data = yield from client.read("/index", 0, 512)
        return chain_id, data

    chain_id, data = sim.run_process(workload())
    # A second execution of the install would have handed out id 2.
    assert chain_id == 1
    assert len(data) == 512
    # Loss happened and was recovered by retransmission...
    assert connection.retries > 0
    assert connection.c2s.frames_dropped + connection.s2c.frames_dropped > 0
    # ...but each op executed exactly once: the duplicate requests that
    # raced a lost *reply* were answered from the dedup cache.
    assert target.executed == {"install_chain": 1, "read": 1}
    assert connection.dedup_hits > 0


def _dedup_lru_scenario(seed=None):
    """Five sends through a 2-entry dedup cache; ``seed`` shuffles dispatch."""
    sim, target, fabric, connection, _client = build_rig(dedup_capacity=2)
    target.create_file("/data", bytes(8192))
    if seed is not None:
        shuffle_immediate(sim, seed)

    def send(request_id):
        frame = wire.encode_frame(wire.OP_READ, request_id,
                                  wire.encode_body(_request(wire.OP_READ),
                                                   ("/data", 0, 512)))
        fabric.transmit(connection.c2s, frame, request_id=request_id)

    send(1)   # executes; cache [1]
    send(2)   # executes; cache [1, 2] — full
    send(1)   # dedup hit, LRU touch; cache [2, 1]
    send(3)   # executes; evicts 2 (LRU). FIFO would have evicted 1.
    send(1)   # dedup hit again: 1 survived the eviction
    sim.run(until=50_000_000)

    assert target.executed == {"read": 3}        # never re-executed
    assert connection.dedup_hits == 2
    assert connection.dedup_evictions == 1


def test_dedup_cache_evicts_lru_not_insertion_order():
    # Regression: with a tiny cache and insertion-order eviction, a
    # request id the client is *still retransmitting* gets displaced by
    # newer traffic and the op re-executes — breaking exactly-once.
    # The LRU touch on a dedup hit keeps the hot id alive instead.
    _dedup_lru_scenario()


@pytest.mark.parametrize("seed", range(1, 21))
def test_dedup_cache_evicts_lru_under_shuffled_dispatch(seed):
    # The scenario relies on the five requests arriving in send order;
    # that is the link's rule, not an accident of same-instant dispatch.
    _dedup_lru_scenario(seed)


def test_persistent_loss_raises_rpc_timeout():
    plan = FaultPlan(FaultSpec(seed=3, net_drop_rate=1.0,
                               net_drop_burst=1_000_000), kernel_seed=3)
    sim, target, _fabric, connection, client = build_rig(
        plan=plan, max_retries=2)
    target.create_file("/data", bytes(8192))

    def workload():
        yield from client.read("/data", 0, 512)

    with pytest.raises(RpcTimeout, match="3 attempts") as excinfo:
        sim.run_process(workload())
    assert target.executed == {}
    # The exception carries structured fields — a failover policy (the
    # cluster client) branches on these, never on the message text.
    timeout = excinfo.value
    assert timeout.op == "read"
    assert timeout.request_id == 1
    assert timeout.attempts == 3
    assert timeout.timeout_ns == connection.timeout_ns


def test_net_delay_slows_but_does_not_break():
    plan = FaultPlan(FaultSpec(seed=3, net_delay_rate=1.0,
                               net_delay_ns=100_000), kernel_seed=3)
    sim, target, _fabric, connection, client = build_rig(plan=plan)
    target.create_file("/data", bytes(8192))

    def workload():
        return (yield from client.read("/data", 0, 512))

    start = sim.now
    assert sim.run_process(workload()) == bytes(512)
    # Request and reply frames each held 100 us beyond the base RTT.
    assert sim.now - start >= 2 * 100_000 + 20_000
    assert connection.c2s.frames_delayed == 1
    assert connection.s2c.frames_delayed == 1
    assert connection.retries == 0


def test_combined_fault_domains_surface_typed_and_recover():
    """Power loss mid-destage + episodic net drops + in-flight RPCs.

    Two independent fault domains fire in one run: the fabric drops
    frames in bursts while the target's device loses power during a
    write-cache destage (a writer on the target's own kernel fsyncs
    while remote reads are in flight).  Every client-visible outcome
    must be either
    success, a *typed* remote refusal, or an RPC timeout — never a
    torn or garbled reply — and after journal-replay recovery the
    target passes fsck and serves again.
    """
    from repro.faults import fault_injection
    from repro.kernel import JournalConfig
    from repro.kernel.recovery import fsck

    spec = FaultSpec(seed=5, net_drop_rate=0.25, net_drop_burst=2,
                     power_loss_after_flushes=1)
    with fault_injection(spec):
        sim = Simulator()
        target = StorageTarget(
            sim, model=NVM2_BENCH,
            config=KernelConfig(cores=2, seed=5, write_cache_depth=4,
                                journal=JournalConfig(journal_blocks=32)))
        fabric = NetworkFabric(sim, NetConfig(one_way_ns=5_000, seed=5))
    client = target.connect(fabric, "client", max_retries=3)
    connection = client.connection
    target.create_file("/data", bytes(64 * 1024))
    # Make the untimed setup durable — recovery must not roll the file
    # system back past the file's creation.
    target.kernel.fs.checkpoint_sync()

    outcomes = []

    def reader(index):
        # Several readers keep RPCs in flight when the power dies.
        for op in range(6):
            slot = (index * 6 + op) % 16
            try:
                yield from client.read("/data", slot * 4096, 4096)
                outcomes.append("ok")
            except RemoteError as error:
                outcomes.append(error.remote_errno.name)
            except RpcTimeout:
                outcomes.append("timeout")

    def local_writer():
        kernel = target.kernel
        proc = kernel.spawn_process("writer")
        fd = yield from kernel.sys_open(proc, "/data")
        try:
            for slot in range(16):
                yield from kernel.sys_pwrite(proc, fd, slot * 4096,
                                             bytes([slot + 1]) * 4096)
            yield from kernel.sys_fsync(proc, fd)
        except PowerLossError:
            pass

    for index in range(3):
        sim.spawn(reader(index), name=f"reader-{index}")
    sim.spawn(local_writer(), name="writer")
    sim.run(until=1_000_000_000)

    assert len(outcomes) == 18
    # The cut surfaced: some ops failed, all of them *typed*.
    assert set(outcomes) <= {"ok", "EPOWERFAIL", "EREMOTE", "timeout"}
    assert any(outcome != "ok" for outcome in outcomes)
    assert connection.bad_frames == 0            # never a torn reply

    # Journal replay brings the target back to a consistent tree...
    target.kernel.recover()
    assert fsck(target.kernel.fs).ok
    # ...and it serves a fresh client again (same faulty network).
    after = target.connect(fabric, "client2")

    def recheck():
        return (yield from after.read("/data", 0, 512))

    assert len(sim.run_process(recheck())) == 512


# ---------------------------------------------------------------------------
# Flow control and fabric behaviour
# ---------------------------------------------------------------------------


def test_inflight_window_bounds_concurrency():
    sim, target, _fabric, connection, client = build_rig(window=2)
    target.create_file("/data", bytes(64 * 1024))
    done = []

    def one(index):
        data = yield from client.read("/data", index * 512, 512)
        done.append((index, len(data)))

    for index in range(6):
        sim.spawn(one(index), name=f"get-{index}")
    sim.run(until=50_000_000)
    assert len(done) == 6
    assert connection.max_inflight == 2


def test_serialization_queues_behind_earlier_frames():
    assert serialize_ns(1000) == 80  # 100 Gbit/s: 0.08 ns per byte
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=0))
    link = fabric.new_link("wire")
    arrivals = []
    link.deliver = lambda frame: arrivals.append((sim.now, len(frame)))
    fabric.transmit(link, bytes(1000))
    fabric.transmit(link, bytes(1000))
    sim.run(until=100_000)
    # The second frame waits for the first to clock out: 80 ns then 160.
    assert arrivals == [(80, 1000), (160, 1000)]
    assert link.bytes_sent == 2000


@pytest.mark.parametrize("seed", range(1, 21))
def test_link_delivers_in_send_order(seed):
    # Frames sent at one instant leave the link in send order however
    # the engine orders that instant's ready events.
    sim = Simulator()
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=5_000))
    link = fabric.new_link("wire")
    arrivals = []
    link.deliver = arrivals.append
    shuffle_immediate(sim, seed)
    frames = [bytes([index]) * 100 for index in range(8)]
    for frame in frames:
        fabric.transmit(link, frame)
    sim.run()
    assert arrivals == frames


def test_net_config_validation():
    with pytest.raises(InvalidArgument, match="one_way_ns"):
        NetConfig(one_way_ns=-1)
    with pytest.raises(InvalidArgument, match="window"):
        build_rig(window=0)
    with pytest.raises(InvalidArgument, match="no receiver"):
        sim = Simulator()
        fabric = NetworkFabric(sim, NetConfig())
        fabric.transmit(fabric.new_link("dangling"), b"frame")


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


def test_remote_workload_is_deterministic():
    def run():
        sim, target, _fabric, connection, client = build_rig(rtt_us=10)
        root, fanout, num_keys = build_tree(target, depth=3)
        program = index_traversal_program(fanout=fanout)
        trace = []

        def workload():
            chain_id = yield from client.install_chain("/index", program)
            for key in (1, (num_keys // 2) * 3 + 1, (num_keys - 1) * 3 + 1):
                start = sim.now
                value, found, _ = yield from client.remote_btree_get(
                    key, mode="pushdown", chain_id=chain_id,
                    root_offset=root)
                trace.append((key, value, found, sim.now - start))

        sim.run_process(workload())
        return trace, dict(connection.rpcs_sent)

    assert run() == run()


# ---------------------------------------------------------------------------
# Observability integration
# ---------------------------------------------------------------------------


def test_net_metrics_account_rpcs_bytes_and_drops():
    from repro.faults import FAULT_NET_DROP
    from repro.obs import ObsSession

    plan = FaultPlan(FaultSpec(seed=3, net_drop_rate=1.0), kernel_seed=3)
    with ObsSession() as obs:
        sim, target, _fabric, connection, client = build_rig(plan=plan)
        root, fanout, num_keys = build_tree(target, depth=3)
        program = index_traversal_program(fanout=fanout)

        def workload():
            chain_id = yield from client.install_chain("/index", program)
            for key in (1, (num_keys - 1) * 3 + 1):
                for mode in ("naive", "pushdown"):
                    value, found, _ = yield from client.remote_btree_get(
                        key, mode=mode, path="/index", root_offset=root,
                        chain_id=chain_id)
                    assert found and value == (key - 1) // 3

        sim.run_process(workload())

    registry = obs.registry
    rpcs = registry.get("net_rpcs_total")
    # Client-issued frames, counted per transmission attempt: under a
    # first-attempt-always-drops plan they exceed the logical RPC count
    # but stay consistent with the connection's own counters.
    assert rpcs.value(op="read") == connection.rpcs_sent["read"]
    assert rpcs.value(op="exec_chain") == connection.rpcs_sent["exec_chain"]
    assert rpcs.value(op="install_chain") == \
        connection.rpcs_sent["install_chain"]
    assert connection.rpcs_sent["read"] >= 2 * 3     # depth RPCs per GET
    assert connection.rpcs_sent["exec_chain"] >= 2   # one per pushdown GET
    net_bytes = registry.get("net_bytes_total")
    assert net_bytes.value(direction="c2s") > 0
    assert net_bytes.value(direction="s2c") > 0
    assert registry.get("net_retries_total").value(op="read") > 0
    # The fabric's drops land in the shared fault counter by kind.
    assert registry.get("faults_injected_total").value(
        kind=FAULT_NET_DROP) > 0
    assert registry.get("net_inflight").samples() == [
        {"labels": {}, "value": 0}]
