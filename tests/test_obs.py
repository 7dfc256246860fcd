"""Observability: trace bus, metrics registry, span trees, JSONL export."""

import contextlib
import gc
import hashlib
import json

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.bench.experiments import fig3c_latency
from repro.bench.registry import BY_NAME, EXPERIMENTS
from repro.faults import fault_injection, parse_fault_spec
from repro.obs import (
    ATTRIBUTION,
    JsonlRecorder,
    MetricsRegistry,
    ObsSession,
    SpanCollector,
    TraceBus,
    attach_standard_metrics,
    events,
    get_default_bus,
)

ORDER = [3, 5, 0, 7, 2, 6, 1, 4]


def chain_machine(bus=None, order=ORDER):
    kwargs = {"bus": bus} if bus is not None else {}
    sim, kernel, bpf = build_machine(**kwargs)
    kernel.create_file("/list", linked_file_bytes(order))
    proc, fd = install_walker(sim, kernel, bpf, "/list")
    return sim, kernel, bpf, proc, fd


def run_chain(kernel, bpf, proc, fd, offset=ORDER[0] * 4096):
    def workload():
        return (yield from bpf.read_chain(proc, fd, offset, 4096))

    return kernel.run_syscall(workload())


# ---------------------------------------------------------------------------
# Bus basics and determinism
# ---------------------------------------------------------------------------


def test_bus_dispatches_by_type_and_wildcard():
    bus = TraceBus(enabled=True)
    typed, wild = [], []
    bus.subscribe(typed.append, events.CHAIN_HOP)
    bus.subscribe(wild.append)
    bus.emit(events.CHAIN_HOP, 10, hop=1)
    bus.emit(events.CHAIN_KILL, 20, pid=7)
    assert [e.etype for e in typed] == [events.CHAIN_HOP]
    assert [e.etype for e in wild] == [events.CHAIN_HOP, events.CHAIN_KILL]
    assert typed[0].ts == 10 and typed[0].get("hop") == 1
    assert bus.events_emitted == 2


def test_bus_events_are_ordered_by_simulated_time():
    bus = TraceBus(enabled=True)
    recorder = JsonlRecorder(bus)
    _, kernel, bpf, proc, fd = chain_machine(bus=bus)
    run_chain(kernel, bpf, proc, fd)
    assert bus.events_emitted > 0
    stamps = [json.loads(line)["ts"] for line in recorder.lines]
    assert stamps == sorted(stamps)


def test_trace_jsonl_is_deterministic_across_runs():
    texts = []
    for _ in range(2):
        bus = TraceBus(enabled=True)
        recorder = JsonlRecorder(bus)
        _, kernel, bpf, proc, fd = chain_machine(bus=bus)
        run_chain(kernel, bpf, proc, fd)
        texts.append(recorder.text())
    assert texts[0] == texts[1]


# SHA-256 of the whole JSONL bus trace of two quick runs.  Two runs of one
# commit agreeing (the test above) says nothing about emission order, span
# ids or stamped ``driver_ns`` surviving a refactor; this does.  First
# recorded before the NVMe submission sites were folded into
# ``Kernel.post``; re-recorded when every root span moved to open before
# its operation's first charge (and the journal commit's ext4 charge and a
# refused submission got their events).  Re-recorded when ``read_chain``
# began entering the kernel through ``sys_pread``: the only difference is
# the ``op`` of an NVMe-hook chain read's ``syscall_enter``, ``chain_entry``
# before and ``pread`` now (1,772 lines of fig3b, 60 of fig3c).  A change
# that moves the trace on purpose re-records both digests.
PINNED_TRACES = [
    ("fig3b", None,
     "d7388d34f5d8b312f46c542addb6b6c970377956026ab1443c74268d025f5ff1"),
    ("fig3c", "seed=7,read_error_rate=0.02,error_burst=2",
     "b67bdb7fcd431bae181dfcc2eacca95365ae82cc32bffacea7cd79acf2537248"),
]


def traced_text(name, fault_plan=None):
    faults = (fault_injection(parse_fault_spec(fault_plan)) if fault_plan
              else contextlib.nullcontext())
    with faults, ObsSession(record_jsonl=True) as obs:
        BY_NAME[name].run(quick=True)
    return obs.recorder


@pytest.mark.parametrize("name,fault_plan,digest", PINNED_TRACES,
                         ids=["fig3b", "fig3c-faulted"])
def test_trace_jsonl_is_pinned_across_commits(name, fault_plan, digest):
    text = traced_text(name, fault_plan).text()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_trace_does_not_depend_on_the_garbage_collector():
    # A closed-loop cell ends with operations in flight; their generators
    # are finalised whenever the collector reaches them.  An abandoned
    # operation leaves its span open instead of closing it at that
    # moment, so nothing lands on the bus after the run.
    with_gc = traced_text("fig3b").text()
    gc.collect()
    gc.disable()
    try:
        recorder = traced_text("fig3b")
        during = len(recorder.lines)
        gc.collect()
    finally:
        gc.enable()
    assert len(recorder.lines) == during
    assert recorder.text() == with_gc


# ---------------------------------------------------------------------------
# Disabled bus: the no-op fast path
# ---------------------------------------------------------------------------


def test_disabled_bus_is_a_noop():
    bus = TraceBus(enabled=False)
    seen = []
    bus.subscribe(seen.append)
    bus.emit(events.CHAIN_HOP, 5, hop=1)
    sid = bus.span_start("x", 5)
    bus.span_end(sid, 6)
    assert seen == []
    assert sid == 0
    assert bus.events_emitted == 0


def test_default_bus_is_disabled_and_workload_emits_nothing():
    assert not get_default_bus().enabled
    _, kernel, bpf, proc, fd = chain_machine()
    result = run_chain(kernel, bpf, proc, fd)
    assert result.ok
    assert kernel.bus.events_emitted == 0


def test_disabled_bus_noop_holds_with_net_subsystem():
    """A full remote GET (fabric + transport + target) emits nothing on
    the default disabled bus — the ``bus.enabled`` guard covers every
    ``net_rpc_send`` / ``net_rpc_recv`` / ``net_retry`` call site."""
    from repro.kernel import KernelConfig
    from repro.net import NetConfig, NetworkFabric, StorageTarget
    from repro.sim import Simulator

    sim = Simulator()
    target = StorageTarget(sim, config=KernelConfig(seed=2))
    target.create_file("/data", bytes(4096))
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=10_000))
    client = target.connect(fabric, "quiet")

    def workload():
        return (yield from client.read("/data", 0, 512))

    assert sim.run_process(workload()) == bytes(512)
    assert not fabric.bus.enabled
    assert fabric.bus.events_emitted == 0
    assert target.kernel.bus.events_emitted == 0


def test_observation_does_not_perturb_the_simulation():
    _, kernel_off, bpf_off, proc_off, fd_off = chain_machine()
    plain = run_chain(kernel_off, bpf_off, proc_off, fd_off)
    bus = TraceBus(enabled=True)
    _, kernel_on, bpf_on, proc_on, fd_on = chain_machine(bus=bus)
    observed = run_chain(kernel_on, bpf_on, proc_on, fd_on)
    assert (plain.value, plain.hops) == (observed.value, observed.hops)
    assert kernel_off.sim.now == kernel_on.sim.now


# ---------------------------------------------------------------------------
# Span trees
# ---------------------------------------------------------------------------


def test_chain_span_tree_parent_child_integrity():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    _, kernel, bpf, proc, fd = chain_machine(bus=bus)
    result = run_chain(kernel, bpf, proc, fd)
    assert result.hops == len(ORDER)

    roots = spans.find_roots("read_chain")
    assert len(roots) == 1
    root = roots[0]
    assert root.parent == 0
    assert root.end_ns is not None and root.end_ns >= root.start_ns
    # One hop span per completion-side dispatch, all parented on the root.
    hops = [child for child in root.children if child.name == "chain_hop"]
    assert len(hops) == len(ORDER)
    assert [h.attrs["hop"] for h in hops] == list(range(1, len(ORDER) + 1))
    for hop in hops:
        assert hop.parent == root.sid
        assert hop.end_ns is not None
        assert hop.start_ns >= root.start_ns
    # The root's ledger is the whole operation, in integer ns.
    assert sum(root.ledger.values()) == root.duration_ns
    assert "unattributed" not in root.ledger
    # The chain setup charges fs/bio once, on the root span.
    assert root.layers.get("ext4", 0) > 0
    assert root.layers.get("bio", 0) > 0
    # Recycled hops never touch those layers; they pay irq + bpf (+ device
    # for every hop that issued another I/O).
    for hop in hops:
        assert "ext4" not in hop.layers and "bio" not in hop.layers
        assert hop.layers.get("irq", 0) > 0
        assert hop.layers.get("bpf", 0) > 0
    issuing = [h for h in hops if "storage device" in h.layers]
    assert len(issuing) == len(ORDER) - 1  # the final hop returns a value

    rendered = "\n".join(spans.render_span(root))
    assert "read_chain" in rendered and "chain_hop" in rendered


def test_baseline_read_spans_show_full_stack():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    sim, kernel, _ = build_machine(bus=bus)
    kernel.create_file("/flat", bytes(8192))
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/flat")
        yield from kernel.sys_pread(proc, fd, 0, 4096)

    kernel.run_syscall(workload())
    roots = spans.find_roots("sys_pread")
    assert len(roots) == 1
    layers = roots[0].layers
    for layer in ("ext4", "bio", "NVMe driver", "storage device"):
        assert layers.get(layer, 0) > 0, layer


# ---------------------------------------------------------------------------
# The layer ledger
# ---------------------------------------------------------------------------


def test_chain_attribution_matches_cost_model():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    _, kernel, bpf, proc, fd = chain_machine(bus=bus)
    start = kernel.sim.now
    run_chain(kernel, bpf, proc, fd)
    latency = kernel.sim.now - start
    cost = kernel.cost
    chain = spans.totals["chain"]
    # ext4 and bio are charged once per chain, not once per hop.
    assert chain["ext4"] == cost.filesystem_ns
    assert chain["bio"] == cost.bio_ns
    # Driver submission cost accrues on every hop that issued an I/O.
    assert chain["NVMe driver"] == cost.nvme_driver_ns * len(ORDER)
    assert spans.hops == len(ORDER)
    assert spans.ops == {"chain": 1}
    # One unloaded chain: no wait of any kind, nothing unattributed.
    assert not {"cpu wait", "sq wait", "sleep", "unattributed"} & set(chain)
    assert sum(chain.values()) == latency


def test_ledger_claims_each_ns_once():
    bus = TraceBus(enabled=True)
    spans = SpanCollector(bus)
    root = bus.span_start("op", 0, path="normal")
    hop = bus.span_start("hop", 100, parent=root)
    # 50 ns waited for a core, then 100 ns of syscall.
    bus.emit(events.SYSCALL_ENTER, 150, crossing_ns=60, syscall_ns=40,
             span=root)
    # Two parallel device reads: the second adds only its tail.
    bus.emit(events.NVME_COMPLETE, 400, queue_ns=50, service_ns=200,
             span=root)
    bus.emit(events.NVME_COMPLETE, 420, queue_ns=20, service_ns=250,
             span=hop)
    bus.span_end(hop, 420)
    # A sleep is announced when it starts; a child's events charge the
    # root even after the child closed.
    bus.emit(events.NVME_RETRY, 420, backoff_ns=80, span=hop)
    bus.emit(events.IRQ_ENTRY, 600, cpu_ns=50, span=hop)
    bus.span_end(root, 620)
    (op,) = spans.roots
    assert op.ledger == {
        "cpu wait": 50 + 50, "kernel crossing": 60, "read syscall": 40,
        "sq wait": 50, "storage device": 200 + 20, "sleep": 80, "irq": 50,
        "unattributed": 20}
    assert sum(op.ledger.values()) == op.duration_ns
    assert spans.unattributed == [op]
    assert spans.mean("normal")["total"] == 620


#: Rows whose operations never wait: one client, nothing queued.
UNLOADED = {"fig1", "table1", "fig3c", "hooks", "crash"}


@pytest.mark.parametrize("exp", EXPERIMENTS, ids=lambda exp: exp.name)
def test_every_closed_operation_is_fully_ledgered(exp):
    with ObsSession() as obs:
        exp.run(quick=True)
    spans = obs.spans
    # Per closed root: sum(layers) == end - start with nothing left over
    # (a missing or double claim would show as unattributed time).
    assert [(root.name, root.ledger) for root in spans.unattributed] == []
    if exp.name in UNLOADED:
        assert spans.ops
        for path, totals in spans.totals.items():
            assert not {"cpu wait", "sq wait", "sleep"} & set(totals), path


def test_fig3c_columns_are_the_ledger_means():
    with ObsSession() as obs:
        (row,) = fig3c_latency(depths=(4,), operations=20)
    # A chained lookup and a syscall-hook lookup are one root each.
    assert obs.spans.mean("chain")["total"] / 1000 == row["nvme_us"]
    assert obs.spans.mean("syscall")["total"] / 1000 == row["syscall_us"]


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


def test_standard_metrics_from_chain_workload():
    bus = TraceBus(enabled=True)
    registry = MetricsRegistry()
    attach_standard_metrics(bus, registry)
    _, kernel, bpf, proc, fd = chain_machine(bus=bus)
    run_chain(kernel, bpf, proc, fd)
    snapshot = {m["name"]: m for m in registry.snapshot()}
    assert snapshot["chain_hops_total"]["samples"][0]["value"] == len(ORDER)
    hist = snapshot["chain_depth"]["samples"][0]
    assert hist["count"] == 1 and hist["sum"] == len(ORDER)
    sources = {tuple(sorted(s["labels"].items())): s["value"]
               for s in snapshot["nvme_commands_total"]["samples"]}
    assert sources[(("source", "bpf-recycle"),)] == len(ORDER) - 1
    assert sources[(("source", "bio"),)] == 1
    # A snapshot is plain JSON-serialisable data.
    assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()


def test_registry_rejects_kind_mismatch():
    registry = MetricsRegistry()
    registry.counter("m", "help")
    with pytest.raises(ValueError):
        registry.gauge("m", "help")


def test_attribution_covers_all_table1_layers():
    layers = set(ATTRIBUTION.values())
    for layer in ("kernel crossing", "read syscall", "ext4", "bio",
                  "NVMe driver", "storage device"):
        assert layer in layers


# ---------------------------------------------------------------------------
# ObsSession end-to-end
# ---------------------------------------------------------------------------


def test_obs_session_installs_and_restores_default_bus():
    before = get_default_bus()
    with ObsSession() as obs:
        assert get_default_bus() is obs.bus
        _, kernel, bpf, proc, fd = chain_machine()
        assert kernel.bus is obs.bus
        run_chain(kernel, bpf, proc, fd)
    assert get_default_bus() is before
    report = obs.render_report()
    assert "Layer ledger" in report
    assert "chain bypass" in report
    assert "read_chain" in report


def test_obs_session_trace_jsonl_write(tmp_path):
    with ObsSession(record_jsonl=True) as obs:
        _, kernel, bpf, proc, fd = chain_machine()
        run_chain(kernel, bpf, proc, fd)
    target = tmp_path / "trace.jsonl"
    count = obs.write_trace_jsonl(str(target))
    lines = target.read_text().splitlines()
    assert len(lines) == count == obs.bus.events_emitted
    for line in lines:
        record = json.loads(line)
        assert "ts" in record and "type" in record


def test_histogram_reports_percentiles():
    registry = MetricsRegistry()
    histogram = registry.histogram("svc", buckets=[10, 100, 1000], help="ns")
    for value in range(1, 101):  # 1..100
        histogram.observe(value)
    (sample,) = histogram.samples()
    assert sample["count"] == 100
    assert sample["p50"] == pytest.approx(50.5)
    assert sample["p95"] == pytest.approx(95.05)
    assert sample["p99"] == pytest.approx(99.01)
    # Rendered lines carry the percentiles alongside count/sum.
    line = [l for l in registry.render().splitlines() if l.startswith("svc")][0]
    assert "p50=" in line and "p95=" in line and "p99=" in line


def test_nvme_service_time_histogram_from_chain_workload():
    bus = TraceBus(enabled=True)
    registry = MetricsRegistry()
    attach_standard_metrics(bus, registry)
    _, kernel, bpf, proc, fd = chain_machine(bus=bus)
    run_chain(kernel, bpf, proc, fd)
    histogram = registry.get("nvme_service_time_ns")
    (sample,) = histogram.samples()
    # Every completed NVMe command carried its device service time.
    assert sample["count"] == len(ORDER)
    assert sample["sum"] > 0
    assert sample["p50"] > 0
    # Cumulative bucket counts are monotone and end at the sample count.
    counts = [sample["buckets"][str(b)] for b in histogram.buckets]
    assert counts == sorted(counts)
    assert counts[-1] <= sample["count"]
