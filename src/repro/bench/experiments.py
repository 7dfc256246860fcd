"""The figure/table reproductions and ablations.

Every function returns a list of row dicts (and takes explicit scale
parameters, so tests can run miniature versions of the same code the
benchmarks run at full scale).  The module docstrings of the individual
functions state the paper's expectation for the shape of the result.
"""

from __future__ import annotations

import contextlib
import struct
from typing import Dict, List, Optional, Sequence

from repro.core import Hook, StorageBpf
from repro.core.extent_cache import NvmeExtentCache
from repro.core.library import index_traversal_program, linked_list_program
from repro.device import DEVICE_PROFILES, NVM_GEN2, LatencyModel
from repro.errors import ExtentInvalidated, InvalidArgument, IoError
from repro.faults import FaultSpec, fault_injection
from repro.kernel import IoUring, JournalConfig, Kernel, KernelConfig, fsck
from repro.obs import SpanCollector, TraceBus, get_default_bus
from repro.qos import QosConfig, Tenant
from repro.sim import Simulator
from repro.structures import FsBackend, KvStore, LsmTree, SsTable
from repro.structures.pages import PAGE_SIZE, search_page
from repro.workloads import OpType, YcsbWorkload, ZipfianGenerator
from repro.sim.rng import RandomStreams
from repro.bench.runner import (NVM2_BENCH, BtreeBench, load_btree,
                                mean_latency, plain_reader, run_closed_loop)

__all__ = [
    "ablation_app_cache",
    "interference",
    "ablation_invalidation_rate",
    "ablation_resubmit_bound",
    "ablation_vm_mode",
    "cluster_failover",
    "compaction",
    "crash_consistency",
    "crash_recovery_sweep",
    "extent_stability",
    "fault_resilience",
    "fig1_latency_breakdown",
    "fig3_throughput",
    "fig3c_latency",
    "fig3d_iouring",
    "lsm_get",
    "mq_scaling",
    "net_pushdown",
    "table1_breakdown",
    "tenants",
]


# ---------------------------------------------------------------------------
# Figure 1 — kernel overhead fraction across device generations
# ---------------------------------------------------------------------------


def _read_ledger(model: LatencyModel, reads: int) -> Dict[str, float]:
    """The mean ledger (ns per layer, plus ``total``) of ``reads`` 512 B
    random reads by one process alone on a fresh machine, traced on the
    process default bus if it is enabled, else on a private one."""
    default = get_default_bus()
    bus = default if default.enabled else TraceBus(enabled=True)
    ledger = SpanCollector(bus, max_roots=0)
    kernel = Kernel(Simulator(), model, KernelConfig(seed=1, bus=bus))
    kernel.create_file("/data", bytes(1 << 20))
    mean_latency(
        kernel, plain_reader(kernel, "/data", RandomStreams(2), "read"),
        reads)
    return ledger.mean("normal")


def fig1_latency_breakdown(reads: int = 200) -> List[Dict]:
    """Figure 1: software share of a 512 B random read per device.

    Paper's shape: negligible on HDD, a few percent on NAND, 10-15 % on
    first-generation Optane, about half on second-generation Optane.
    """
    from dataclasses import replace

    rows = []
    for name in ("hdd", "nand", "nvm1", "nvm2"):
        # Jitter-free device models so the software share is exact.
        model = replace(DEVICE_PROFILES[name], jitter=0.0)
        ledger = _read_ledger(model, reads)
        total_ns = ledger["total"]
        device_ns = ledger["storage device"]
        software_ns = total_ns - device_ns
        rows.append({
            "device": model.name,
            "total_us": total_ns / 1000,
            "device_us": device_ns / 1000,
            "software_us": software_ns / 1000,
            "software_pct": 100.0 * software_ns / total_ns,
        })
    return rows


# ---------------------------------------------------------------------------
# Table 1 — per-layer latency breakdown on gen-2 Optane
# ---------------------------------------------------------------------------

#: The paper's Table 1, for comparison columns.
TABLE1_PAPER = {
    "kernel crossing": 351,
    "read syscall": 199,
    "ext4": 2006,
    "bio": 379,
    "NVMe driver": 113,
    "storage device": 3224,
}


def table1_breakdown(reads: int = 200) -> List[Dict]:
    """Table 1: where a 512 B read's 6.27 us go on gen-2 Optane, every
    row measured by the ledger."""
    ledger = _read_ledger(NVM2_BENCH, reads)
    total_ns = round(ledger["total"])
    rows = []
    for layer, paper_ns in TABLE1_PAPER.items():
        layer_ns = round(ledger.get(layer, 0))
        rows.append({
            "layer": layer,
            "measured_ns": layer_ns,
            "paper_ns": paper_ns,
            "measured_pct": 100.0 * layer_ns / total_ns,
        })
    rows.append({
        "layer": "total",
        "measured_ns": total_ns,
        "paper_ns": 6272,
        "measured_pct": 100.0,
    })
    return rows


# ---------------------------------------------------------------------------
# Figures 3a / 3b — lookup throughput vs threads, per hook
# ---------------------------------------------------------------------------


def fig3_throughput(hook: str,
                    depths: Sequence[int] = (2, 6, 10),
                    threads: Sequence[int] = (1, 2, 4, 6, 12),
                    duration_ns: int = 10_000_000,
                    cores: int = 6) -> List[Dict]:
    """Figures 3a (hook='syscall') and 3b (hook='nvme').

    Paper's shape: the syscall hook tops out around 1.25x; the NVMe hook
    reaches ~2.5x, growing with tree depth, with the largest relative gains
    appearing once the baseline saturates the six cores.
    """
    if hook not in ("syscall", "nvme"):
        raise ValueError(f"hook must be 'syscall' or 'nvme', got {hook!r}")
    rows = []
    for depth in depths:
        for thread_count in threads:
            baseline_bench = BtreeBench(depth, cores=cores, seed=depth)
            baseline = baseline_bench.throughput("baseline", thread_count,
                                                 duration_ns)
            hook_bench = BtreeBench(depth, cores=cores, seed=depth)
            hooked = hook_bench.throughput(hook, thread_count, duration_ns)
            rows.append({
                "depth": depth,
                "threads": thread_count,
                "baseline_klookups": baseline / 1000,
                f"{hook}_klookups": hooked / 1000,
                "speedup": hooked / baseline,
            })
    return rows


# ---------------------------------------------------------------------------
# Figure 3c — single-thread latency vs depth, both hooks
# ---------------------------------------------------------------------------


def fig3c_latency(depths: Sequence[int] = (1, 2, 3, 4, 6, 8, 10),
                  operations: int = 120) -> List[Dict]:
    """Figure 3c: mean lookup latency; the NVMe hook cuts it up to ~49 %."""
    rows = []
    for depth in depths:
        values = {}
        for system in ("baseline", "syscall", "nvme"):
            bench = BtreeBench(depth, seed=depth)
            values[system] = bench.mean_latency(system, operations)
        rows.append({
            "depth": depth,
            "baseline_us": values["baseline"] / 1000,
            "syscall_us": values["syscall"] / 1000,
            "nvme_us": values["nvme"] / 1000,
            "nvme_reduction_pct":
                100.0 * (1 - values["nvme"] / values["baseline"]),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 3d — io_uring batch size sweep, single thread
# ---------------------------------------------------------------------------


def fig3d_iouring(depths: Sequence[int] = (3, 6, 10),
                  batches: Sequence[int] = (1, 2, 4, 8, 16, 32),
                  duration_ns: int = 10_000_000) -> List[Dict]:
    """Figure 3d: speedup grows with batch size; >2.5x for deep trees,
    around 1.3-1.5x for three dependent lookups."""
    rows = []
    for depth in depths:
        for batch in batches:
            baseline = _iouring_baseline_tput(depth, batch, duration_ns)
            hooked = _iouring_chain_tput(depth, batch, duration_ns)
            rows.append({
                "depth": depth,
                "batch": batch,
                "baseline_klookups": baseline / 1000,
                "bpf_klookups": hooked / 1000,
                "speedup": hooked / baseline,
            })
    return rows


def _iouring_baseline_tput(depth: int, batch: int,
                           duration_ns: int) -> float:
    """Unmodified io_uring: the app drives every level of every lookup.

    Single core: NVMe completion interrupts are steered to the submitting
    CPU, so in a single-threaded experiment the IRQ work and the
    application share one core (for both systems).
    """
    bench = BtreeBench(depth, seed=depth, cores=1)
    kernel = bench.kernel
    root = bench.tree.meta.root_offset
    user_ns = kernel.cost.user_process_ns

    def driver(index):
        proc = kernel.spawn_process("uring-base")
        fd = yield from kernel.sys_open(proc, "/index")
        ring = IoUring(kernel, proc)
        next_key = bench._key_stream(index)
        # lookup state: user_data -> [key, level, offset]
        lookups = {}
        for slot in range(batch):
            lookups[slot] = [next_key(), 0, root]

        def one_batch():
            for slot, (key, _level, offset) in lookups.items():
                ring.prep_read(fd, offset, PAGE_SIZE, user_data=slot)
            cqes = yield from ring.enter(wait_nr=batch)
            # App-side parse of every completed page.
            yield from kernel.cpus.run_thread(user_ns * len(cqes))
            finished = 0
            for cqe in cqes:
                slot = cqe.user_data
                key, level, _offset = lookups[slot]
                _index, child = search_page(cqe.result.data, key)
                if level + 1 >= depth or child is None:
                    finished += 1
                    lookups[slot] = [next_key(), 0, root]
                else:
                    lookups[slot] = [key, level + 1, child]
            return finished

        return one_batch

    [(meter, _latency)] = run_closed_loop(bench.sim, duration_ns, (1, driver))
    return meter.ops_per_sec()


def _iouring_chain_tput(depth: int, batch: int, duration_ns: int) -> float:
    """io_uring + the NVMe-hook chain: one tagged SQE per whole lookup.

    Single core, matching the baseline (IRQ affinity to the submitter).
    """
    bench = BtreeBench(depth, seed=depth, cores=1)
    kernel = bench.kernel
    root = bench.tree.meta.root_offset

    def driver(index):
        proc = kernel.spawn_process("uring-bpf")
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bench.bpf.install(proc, fd, bench.program,
                                     hook=Hook.NVME,
                                     vm_mode=bench.vm_mode)
        ring = IoUring(kernel, proc)
        next_key = bench._key_stream(index)

        def one_batch():
            for _slot in range(batch):
                ring.prep_read(fd, root, PAGE_SIZE, user_data=None,
                               tagged=True, args=(next_key(),))
            cqes = yield from ring.enter(wait_nr=batch)
            return len(cqes)

        return one_batch

    [(meter, _latency)] = run_closed_loop(bench.sim, duration_ns, (1, driver))
    return meter.ops_per_sec()


# ---------------------------------------------------------------------------
# §4 extent stability — YCSB 40R/40U/20I zipf(0.7) over a batch-built index
# ---------------------------------------------------------------------------


def extent_stability(sim_hours: float = 1.0,
                     ops_per_sec: int = 500,
                     initial_keys: int = 20_000,
                     rebuild_overlay: int = 32_000,
                     gc_every_rebuilds: int = 120,
                     fanout: int = 64,
                     seed: int = 9) -> List[Dict]:
    """§4's TokuDB measurement: how often do index-file extents change?

    Paper: extents changed every ~159 s on average over 24 h, and only 5
    changes unmapped blocks.  Here the index is an append-rebuilt B-tree
    (overlay merged past EOF every ``rebuild_overlay`` dirty keys; a full
    compacting rewrite every ``gc_every_rebuilds`` rebuilds), driven by the
    paper's exact YCSB mix.  The row reports measured change intervals and
    the 24-hour extrapolation.
    """
    from repro.device import BlockDevice
    from repro.kernel.extfs import ExtFs

    fs = ExtFs(BlockDevice(4 * 1024 * 1024))  # 2 GiB
    store = KvStore(fs, "/index", fanout=fanout)
    store.bulk_load([(key, key) for key in range(initial_keys)])
    cache = NvmeExtentCache(fs)
    cache.install(fs.lookup("/index"))

    grow_times: List[float] = []
    unmap_times: List[float] = []
    clock = {"now_s": 0.0}
    # Inode numbers that are (or were, across a GC rename) the index file.
    watched = {fs.lookup("/index").number}

    def listener(inode, kind):
        if inode.number not in watched:
            return
        if kind == "grow":
            grow_times.append(clock["now_s"])
        else:
            unmap_times.append(clock["now_s"])

    fs.extent_change_listeners.append(listener)

    workload = YcsbWorkload(initial_keys,
                            RandomStreams(seed).stream("ycsb"),
                            mix="paper", theta=0.7)
    total_ops = int(sim_hours * 3600 * ops_per_sec)
    op_interval = 1.0 / ops_per_sec
    rebuilds = 0
    reads = 0
    for op_number in range(total_ops):
        clock["now_s"] = op_number * op_interval
        op = workload.next_operation()
        if op.op is OpType.READ:
            store.get(op.key)
            reads += 1
        elif op.op is OpType.UPDATE:
            store.put(op.key, op.value)
        else:
            store.put(op.key, op.value)
        if store.overlay_size >= rebuild_overlay:
            rebuilds += 1
            if rebuilds % gc_every_rebuilds == 0:
                store.rebuild()
                watched.add(fs.lookup("/index").number)
                # Re-run the install ioctl after the invalidation.
                cache.install(fs.lookup("/index"))
            else:
                store.rebuild_appending()

    changes = sorted(grow_times + unmap_times)
    intervals = [b - a for a, b in zip(changes, changes[1:])]
    # Added left to right: from Python 3.12 the builtin sum() compensates
    # float addition, which moves the last digit the golden pins.
    total_interval = 0.0
    for interval in intervals:
        total_interval += interval
    mean_interval = (total_interval / len(intervals)) if intervals else \
        float("inf")
    hours = total_ops * op_interval / 3600
    # Short windows may contain no GC pass at all; derive the steady-state
    # unmap rate from the policy (one every gc_every_rebuilds rebuilds).
    derived_unmaps_24h = (24 * 3600 /
                          (gc_every_rebuilds * mean_interval)
                          if mean_interval not in (0, float("inf")) else 0)
    return [{
        "sim_hours": hours,
        "operations": total_ops,
        "extent_changes": len(changes),
        "unmap_changes": len(unmap_times),
        "mean_change_interval_s": mean_interval,
        "invalidations": cache.invalidations,
        "changes_per_24h": len(changes) * 24 / hours if hours else 0,
        "unmaps_per_24h": (len(unmap_times) * 24 / hours
                           if unmap_times else derived_unmaps_24h),
        "paper_interval_s": 159,
        "paper_unmaps_per_24h": 5,
    }]


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def ablation_resubmit_bound(chain_length: int = 24,
                            bounds: Sequence[int] = (2, 4, 8, 16, 64),
                            lookups: int = 60) -> List[Dict]:
    """Fairness bound sweep: tighter bounds force more (bounded) chains per
    lookup, trading latency for fairness; the result must stay correct."""
    rows = []
    for bound in bounds:
        kernel = Kernel(Simulator(), NVM2_BENCH, KernelConfig(seed=4))
        bpf = StorageBpf(kernel, max_chain_hops=bound)
        blocks = bytearray(chain_length * PAGE_SIZE)
        for index in range(chain_length):
            nxt = ((index + 1) * PAGE_SIZE if index + 1 < chain_length
                   else 0xFFFFFFFFFFFFFFFF)
            struct.pack_into("<QQ", blocks, index * PAGE_SIZE, nxt, index)
        kernel.create_file("/chain", bytes(blocks))
        program = linked_list_program()
        bpf.verify_program(program)
        proc = kernel.spawn_process()

        def make_worker(_index):
            fd = yield from kernel.sys_open(proc, "/chain")
            yield from bpf.install(proc, fd, program)

            def one_op():
                result = yield from bpf.read_chain_robust(
                    proc, fd, 0, PAGE_SIZE,
                    max_retries=chain_length + 2)
                assert result.value == chain_length - 1

            return one_op

        latency_ns = mean_latency(kernel, make_worker, lookups)
        kills = bpf.accounting.chains_killed.get(proc.pid, 0)
        rows.append({
            "bound": bound,
            "chain_length": chain_length,
            "kills_per_lookup": kills / lookups,
            "mean_latency_us": latency_ns / 1000,
        })
    return rows


def ablation_invalidation_rate(
        intervals_us: Sequence[Optional[float]] = (None, 5000, 1000, 200),
        depth: int = 4, duration_ns: int = 8_000_000) -> List[Dict]:
    """Extent-churn sweep: how chain throughput degrades as the file's
    extents are unmapped (and the cache invalidated) more often."""
    rows = []
    for interval_us in intervals_us:
        bench = BtreeBench(depth, seed=7)
        sim = bench.sim
        fs = bench.kernel.fs
        inode = fs.lookup("/index")
        # A sacrificial appendix block the injector can punch without
        # damaging tree pages (any unmap invalidates the whole snapshot).
        appendix = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
        fs.write_sync(inode, appendix, b"\x00" * PAGE_SIZE)

        if interval_us is not None:
            def injector():
                while True:
                    yield sim.timeout(int(interval_us * 1000))
                    fs.punch_range(inode, appendix, PAGE_SIZE)
                    fs.write_sync(inode, appendix, b"\x00" * PAGE_SIZE)

            sim.spawn(injector(), name="churn")

        [(meter, latency)] = run_closed_loop(
            sim, duration_ns,
            (2, bench.chain_worker(Hook.NVME, max_retries=64)))
        rows.append({
            "churn_interval_us": interval_us if interval_us else "none",
            "klookups_per_s": meter.ops_per_sec() / 1000,
            "mean_latency_us": latency.mean / 1000,
            "invalidations": bench.bpf.cache.invalidations,
            "refresh_ioctls": bench.bpf.cache.refreshes,
        })
    return rows


def ablation_app_cache(depth: int = 6,
                       cached_levels: Sequence[int] = (0, 1, 2, 3),
                       operations: int = 150) -> List[Dict]:
    """§4's caching model: the application caches the hot top levels of the
    index in its own memory and starts the kernel chain below them.

    Each cached level replaces a device read with an in-memory page parse,
    so latency falls roughly one device round trip per level — quantifying
    the hybrid user-cache + BPF-chain design (which is how XRP later used
    this mechanism).
    """
    rows = []
    for cached in cached_levels:
        if cached >= depth:
            continue
        bench = BtreeBench(depth, seed=11)
        kernel = bench.kernel
        backend = bench.tree.backend
        user_ns = kernel.cost.user_process_ns

        def make_worker(index):
            proc = kernel.spawn_process("cache-app")
            fd = yield from kernel.sys_open(proc, "/index")
            yield from bench.bpf.install(proc, fd, bench.program,
                                         hook=Hook.NVME)
            next_key = bench._key_stream(index)

            def one_op():
                key = next_key()
                offset = bench.tree.meta.root_offset
                # Walk the cached levels in application memory.
                for _level in range(cached):
                    page = backend.read(offset, PAGE_SIZE)
                    yield from kernel.cpus.run_thread(user_ns)
                    _index, child = search_page(page, key)
                    offset = child
                # Chain the remaining levels in the kernel.
                yield from bench.bpf.read_chain(proc, fd, offset,
                                                PAGE_SIZE, args=(key,))

            return one_op

        rows.append({
            "cached_levels": cached,
            "device_reads_per_lookup": depth - cached,
            "mean_latency_us":
                mean_latency(kernel, make_worker, operations) / 1000,
        })
    return rows


def interference(chain_depth: int = 16, plain_threads: int = 3,
                 chain_threads: int = 12,
                 duration_ns: int = 8_000_000) -> List[Dict]:
    """§4 Fairness: do BPF chains starve ordinary readers?

    Three plain 512 B readers share the machine with three deep-chain
    processes.  BPF reissues never pass the block scheduler, so the only
    protections are the device's queue arbitration and the per-process
    accounting the NVMe layer drains to the BIO layer; this experiment
    measures the interference and verifies the accounting books balance.
    """
    rows = []
    for scenario in ("alone", "with-chains"):
        bench = BtreeBench(chain_depth, seed=13)
        kernel = bench.kernel
        kernel.create_file("/plain", bytes(1 << 20))
        populations = [(plain_threads, plain_reader(kernel, "/plain",
                                                    bench.streams, "plain"))]
        if scenario == "with-chains":
            populations.append((chain_threads,
                                bench.chain_worker(Hook.NVME)))
        (plain_meter, plain_latency), *_chains = run_closed_loop(
            bench.sim, duration_ns, *populations)
        drained = bench.bpf.accounting.drain_to_bio()
        rows.append({
            "scenario": scenario,
            "plain_kreads_per_s": plain_meter.ops_per_sec() / 1000,
            "plain_mean_latency_us": plain_latency.mean / 1000,
            "chained_resubmissions": sum(drained.values()),
            "chain_processes_accounted": len(drained),
        })
    return rows


def _p99(samples: Sequence[int]) -> float:
    ordered = sorted(samples)
    return ordered[int(0.99 * (len(ordered) - 1))]


def tenants(chain_depth: int = 12, victim_threads: int = 2,
            aggressor_threads: int = 96, duration_ns: int = 8_000_000,
            victim_weight: int = 12, chain_tokens_per_ms: int = 750,
            seed: int = 13) -> List[Dict]:
    """Multi-tenant isolation: can QoS protect a victim from an aggressor?

    One machine, two tenants.  The *victim* runs a light mixed YCSB over
    a plain file (512 B reads and writes); the *aggressor* floods the
    same device with deep NVMe-hook chains, whose resubmissions bypass
    the block scheduler entirely.  Three scenarios:

    * ``victim-alone`` — the victim's unloaded baseline p99;
    * ``qos-off`` — the aggressor arrives, FIFO submission queues: the
      victim's p99 collapses (expected well over 5x the baseline);
    * ``qos-on`` — same load, but a :class:`~repro.qos.QosConfig` arms
      weighted-fair queueing at the NVMe submission queue (victim
      weighted ``victim_weight``:1) plus chain pacing at
      ``chain_tokens_per_ms`` resubmissions/ms on the aggressor's IRQ
      path.  WFQ is work-conserving and the victim speeds up, so the
      aggregate ops/sec stays comfortably above ~90 % of ``qos-off``
      while the victim's p99 lands within ~2x of its baseline.
    """
    qos_config = QosConfig(tenants=(Tenant("victim", weight=victim_weight),
                                    Tenant("aggressor", weight=1)),
                           chain_tokens_per_ms=chain_tokens_per_ms)
    rows = []
    for scenario, qos, with_aggressor in (("victim-alone", None, False),
                                          ("qos-off", None, True),
                                          ("qos-on", qos_config, True)):
        bench = BtreeBench(chain_depth, seed=seed, qos=qos)
        kernel = bench.kernel
        kernel.create_file("/plain", bytes(1 << 20))
        sectors = (1 << 20) // 512

        def victim_worker(index):
            proc = kernel.spawn_process(f"victim-{index}", tenant="victim")
            fd = yield from kernel.sys_open(proc, "/plain")
            workload = YcsbWorkload(
                sectors, bench.streams.fork(f"victim-{index}").stream("ycsb"),
                mix="paper")
            payload = bytes(512)

            def one_op():
                op = workload.next_operation()
                offset = (op.key % sectors) * 512
                if op.op in (OpType.UPDATE, OpType.INSERT):
                    yield from kernel.sys_pwrite(proc, fd, offset, payload)
                else:
                    yield from kernel.sys_pread(proc, fd, offset, 512)

            return one_op

        populations = [(victim_threads, victim_worker)]
        if with_aggressor:
            populations.append((aggressor_threads, bench.chain_worker(
                Hook.NVME, tenant="aggressor")))
        (victim, victim_latency), *aggressors = run_closed_loop(
            bench.sim, duration_ns, *populations)
        victim_ops = victim.completed
        aggressor_ops = sum(meter.completed for meter, _lat in aggressors)
        seconds = duration_ns / 1e9
        rows.append({
            "scenario": scenario,
            "qos": "on" if qos is not None else "off",
            "victim_p99_us": _p99(victim_latency.samples) / 1000,
            "victim_kops_per_s": victim_ops / seconds / 1000,
            "aggressor_kops_per_s": aggressor_ops / seconds / 1000,
            "aggregate_kops_per_s":
                (victim_ops + aggressor_ops) / seconds / 1000,
        })
    baseline = rows[0]["victim_p99_us"]
    for row in rows:
        row["victim_p99_x_alone"] = row["victim_p99_us"] / baseline
    return rows


# ---------------------------------------------------------------------------
# LSM compaction offload — boundary bytes and foreground interference
# ---------------------------------------------------------------------------


def compaction(runs: int = 4, keys_per_run: int = 600,
               tombstones_per_run: int = 40, readers: int = 2,
               seed: int = 11, rtt_us: int = 10,
               cores: int = 4) -> List[Dict]:
    """LSM compaction: user-space vs chain-offloaded vs remote-offloaded.

    The same overlapping-L0 compaction (``runs`` runs, tombstones
    included, dropped at the bottom level) executes three ways while
    foreground 512 B readers share the machine:

    * ``user`` — every input page is pread into user space, merged by
      the application, and the merged table written back down: each
      byte crosses the syscall boundary twice (the paper's auxiliary
      I/O tax, RESYSTANCE's write amplification).
    * ``offloaded`` — one installed chain per input run streams entries
      into the kernel-side merge sink; only two u64 counters per run
      surface.  Expected shape: *at least 5x* (in practice orders of
      magnitude) fewer boundary-crossing bytes at byte-identical output.
    * ``remote`` — a :class:`~repro.net.StorageTarget` runs the whole
      compaction server-side on one COMPACT RPC (the BPF-oF shape);
      the boundary column counts network bytes, both directions.

    All three modes must produce identical output tables; the ``fg``
    columns expose how much each mode's compaction perturbs foreground
    read latency.
    """
    rows = [
        _compaction_cell(mode, runs, keys_per_run, tombstones_per_run,
                         readers, seed, rtt_us, cores)
        for mode in ("user", "offloaded", "remote")
    ]
    return rows


def _seed_compaction_lsm(fs, runs: int, keys_per_run: int,
                         tombstones_per_run: int) -> LsmTree:
    """An overlapping L0: each run rewrites half the previous run's key
    range and tombstones a slice of it, so the merge has real overwrite
    and garbage-collection work to do."""
    tree = LsmTree(fs, "/db", memtable_limit=4 * keys_per_run,
                   l0_limit=runs + 4)
    half = keys_per_run // 2
    for run in range(runs):
        base = run * half
        for index in range(keys_per_run):
            tree.put(base + index, run * 100_000 + index)
        for index in range(tombstones_per_run):
            tree.delete(base + index * 3)
        tree.flush()
    return tree


def _compaction_cell(mode: str, runs: int, keys_per_run: int,
                     tombstones_per_run: int, readers: int, seed: int,
                     rtt_us: int, cores: int) -> Dict:
    from repro.compact import CompactionEngine
    from repro.net import NetConfig, NetworkFabric, StorageTarget

    sim = Simulator()
    if mode == "remote":
        target = StorageTarget(sim, model=NVM2_BENCH,
                               config=KernelConfig(cores=cores, seed=seed))
        kernel = target.kernel
    else:
        kernel = Kernel(sim, NVM2_BENCH,
                        KernelConfig(cores=cores, seed=seed))
    tree = _seed_compaction_lsm(kernel.fs, runs, keys_per_run,
                                tombstones_per_run)
    kernel.create_file("/fg", bytes(1 << 20))
    done: List[bool] = []
    fg_latency: List[int] = []

    make_reader = plain_reader(kernel, "/fg", RandomStreams(seed), "fg")

    # Foreground readers run until the compaction completes (plus the
    # op in flight), so the latency samples cover exactly the window
    # the compaction perturbs.  In remote mode they run on the target —
    # that is where the contention is.
    def reader(index):
        one_read = yield from make_reader(index)
        while not done:
            start = sim.now
            yield from one_read()
            fg_latency.append(sim.now - start)

    for index in range(readers):
        sim.spawn(reader(index), name=f"fg-{index}")

    out: Dict[str, object] = {}
    if mode == "remote":
        fabric = NetworkFabric(sim, NetConfig(
            one_way_ns=rtt_us * 1000 // 2, seed=seed))
        client = target.connect(fabric, "compactor")
        plan = tree.plan_compaction(0)
        output_path = tree.reserve_table_path()

        def compactor():
            start = sim.now
            result = yield from client.compact(
                output_path, plan.input_paths(),
                drop_tombstones=plan.drop_tombstones)
            inode = kernel.fs.lookup(output_path)
            table = SsTable(FsBackend(kernel.fs, inode))
            tree.apply_compaction(plan, [], output=(output_path, table))
            out["boundary_bytes"] = result.net_bytes
            out["emitted"] = result.emitted
            out["dropped"] = result.dropped
            out["output_entries"] = result.output_entries
            out["output_bytes"] = result.output_bytes
            out["chain_hops"] = result.chain_hops
            out["duration_ns"] = sim.now - start
            done.append(True)
    else:
        engine = CompactionEngine(StorageBpf(kernel))
        proc = engine.spawn()

        def compactor():
            report = yield from engine.compact_tree(proc, tree, 0,
                                                    mode=mode)
            out["boundary_bytes"] = report.user_bytes
            out["emitted"] = report.emitted
            out["dropped"] = report.dropped
            out["output_entries"] = report.output_entries
            out["output_bytes"] = report.output_bytes
            out["chain_hops"] = report.chain_hops
            out["duration_ns"] = report.duration_ns
            done.append(True)

    sim.spawn(compactor(), name="compactor")
    sim.run()
    return {
        "mode": mode,
        "input_tables": runs,
        "boundary_kb": round(out["boundary_bytes"] / 1024, 3),
        "output_kb": round(out["output_bytes"] / 1024, 3),
        "output_entries": out["output_entries"],
        "emitted": out["emitted"],
        "dropped": out["dropped"],
        "chain_hops": out["chain_hops"],
        "compaction_us": round(out["duration_ns"] / 1000, 2),
        "fg_reads": len(fg_latency),
        "fg_p99_us": round(_p99(fg_latency) / 1000, 2),
    }


def ablation_vm_mode(depth: int = 6, operations: int = 150) -> List[Dict]:
    """eBPF execution tiers: interpreter vs the whole-program block
    compiler (the JIT stand-in).

    The simulated latency differs by the cost model's two per-instruction
    constants; the block tier's additional win is simulator wall-clock,
    which the bench harness measures around this function.
    """
    rows = []
    for mode in ("interp", "block"):
        bench = BtreeBench(depth, seed=3, vm_mode=mode)
        latency = bench.mean_latency("nvme", operations)
        rows.append({
            "mode": mode,
            "depth": depth,
            "mean_latency_us": latency / 1000,
        })
    baseline = BtreeBench(depth, seed=3).mean_latency("baseline", operations)
    for row in rows:
        row["speedup_vs_baseline"] = baseline / (row["mean_latency_us"] *
                                                 1000)
    return rows


# ---------------------------------------------------------------------------
# Resilience — availability and tail latency under injected faults
# ---------------------------------------------------------------------------


def fault_resilience(rates: Sequence[float] = (0.0, 0.001, 0.01, 0.05),
                     depth: int = 4, threads: int = 4,
                     duration_ns: int = 4_000_000, error_burst: int = 2,
                     seed: int = 21, fault_seed: int = 17) -> List[Dict]:
    """Chained B-tree lookups under a transient-fault plan.

    For each rate, reads draw transient media-error episodes (burst
    ``error_burst``), completion timeouts at a tenth of the rate, and
    latency spikes at the same rate.  Workers run the *robust* chain
    protocol, so every failure either recovers in-kernel (driver/chain
    retries), degrades to a user-space restart, or surfaces as an
    ``IoError`` — never a hang.  Availability is the fraction of lookups
    completing without a surfaced error; the injected/retried/degraded
    columns reconcile against the fault plan's own counters.
    """
    rows = []
    for rate in rates:
        spec = None
        if rate > 0:
            spec = FaultSpec(seed=fault_seed, read_error_rate=rate,
                             error_burst=error_burst,
                             timeout_rate=rate / 10,
                             spike_rate=rate, spike_factor=6.0)
        ctx = (fault_injection(spec) if spec is not None
               else contextlib.nullcontext())
        with ctx:
            bench = BtreeBench(depth, seed=seed)
        kernel = bench.kernel
        counts = {"ok": 0, "surfaced": 0}
        chain_worker = bench.chain_worker(Hook.NVME, max_retries=32)

        def worker(index):
            lookup = yield from chain_worker(index)

            def one_op():
                try:
                    yield from lookup()
                    counts["ok"] += 1
                except (IoError, ExtentInvalidated):
                    counts["surfaced"] += 1

            return one_op

        [(meter, latency)] = run_closed_loop(bench.sim, duration_ns,
                                             (threads, worker))

        plan = kernel.fault_plan
        injected = dict(plan.injected) if plan is not None else {}
        attempts = counts["ok"] + counts["surfaced"]
        rows.append({
            "fault_rate": rate,
            "klookups_per_s": meter.ops_per_sec() / 1000,
            "p99_latency_us": latency.p99 / 1000,
            "availability_pct": (100.0 * counts["ok"] / attempts
                                 if attempts else 100.0),
            "injected": (injected.get("transient", 0) +
                         injected.get("timeout", 0) +
                         injected.get("spike", 0)),
            "retries": kernel.nvme_retries,
            "timeouts": kernel.nvme_timeouts,
            "fallbacks": bench.bpf.engine.fault_fallbacks,
            "surfaced_errors": counts["surfaced"],
        })
    return rows


# ---------------------------------------------------------------------------
# Crash consistency — enumerated power cuts with recovery verification
# ---------------------------------------------------------------------------


def crash_consistency(seed: int = 0, cache_depth: int = 8,
                      journal_blocks: int = 64,
                      modes: Sequence[str] = ("flush", "op", "op-torn",
                                              "sync"),
                      point: Optional[int] = None) -> List[Dict]:
    """Crash-point enumeration over the mixed metadata workload.

    Four sweeps over the same 17-op create/write/fsync/rename/unlink/
    truncate script, ALICE/CrashMonkey style.  ``flush`` cuts power the
    instant each NVMe FLUSH completes (the fsync commit boundary, so the
    journal commit has not yet been written); ``op`` and ``op-torn`` cut
    between syscalls with the volatile write cache full (``op-torn``
    additionally tears the oldest in-flight multi-sector write); ``sync``
    runs write-through + ``sync_commit`` where a crash after any op may
    lose *nothing*.  Every row must come back ``fsck ok`` and
    ``consistent``: the recovered file system equals the shadow state at
    the last commit point — rolled-back tails never resurrect, durable
    prefixes never disappear.
    """
    from repro.faults.crashpoints import (enumerate_crash_points,
                                          mixed_workload)

    ops = mixed_workload(seed)
    ordered = JournalConfig(journal_blocks=journal_blocks)
    sweeps = {
        "flush": dict(journal=ordered, cache_depth=cache_depth,
                      tear=False, at="flush"),
        "op": dict(journal=ordered, cache_depth=cache_depth,
                   tear=False, at="op"),
        "op-torn": dict(journal=ordered, cache_depth=cache_depth,
                        tear=True, at="op"),
        "sync": dict(journal=JournalConfig(journal_blocks=journal_blocks,
                                           sync_commit=True),
                     cache_depth=0, tear=False, at="op"),
    }
    rows: List[Dict] = []
    for mode in modes:
        if mode not in sweeps:
            raise InvalidArgument(f"unknown crash sweep mode {mode!r} "
                                  f"(choose from {sorted(sweeps)})")
        sweep = sweeps[mode]
        for res in enumerate_crash_points(ops, seed=seed, **sweep):
            if point is not None and res.boundary != point:
                continue
            verdict = res.ok
            if mode == "sync":
                # Write-through + per-op commit: nothing may be lost.
                verdict = verdict and res.commit_index == res.ops_completed
            rows.append({
                "mode": mode,
                "crash_point": (f"flush#{res.boundary}"
                                if res.mode == "flush"
                                else f"after-op#{res.boundary}"),
                "ops_done": res.ops_completed + 1,
                "durable_ops": res.commit_index + 1,
                "replayed_txns": res.replayed_txns,
                "discarded_txns": res.discarded_txns,
                "dropped_writes": res.dropped_writes,
                "torn_sectors": res.torn_sectors,
                "fsck": "ok" if res.fsck_ok else "FAIL",
                "verdict": "consistent" if verdict else "INCONSISTENT",
            })
    return rows


# ---------------------------------------------------------------------------
# Multi-queue scaling — SQ/CQ pairs with per-core IRQ steering
# ---------------------------------------------------------------------------

#: A deeper gen-2 Optane for the multi-queue sweep: same media latency as
#: NVM2_BENCH but enough internal parallelism that the per-core IRQ lane,
#: not the media, is the bottleneck being scaled away.  A little (seeded,
#: deterministic) jitter decorrelates the closed-loop workers so they do
#: not arrive at a lane in lock-step convoys.
MQ_NVME = LatencyModel("nvm2-mq", read_ns=3224, write_ns=3600,
                       parallelism=28, jitter=0.05)


def mq_scaling(queue_pairs: Sequence[int] = (1, 2, 4, 8),
               threads: Sequence[int] = (24, 32),
               depth: int = 3,
               duration_ns: int = 2_000_000,
               cores: int = 6) -> List[Dict]:
    """Aggregate chain IOPS vs number of NVMe SQ/CQ pairs.

    Every configuration steers completion interrupts: queue ``q`` fires
    on core ``q % cores``, so a single pair funnels *all* completion
    work (IRQ entry + BPF hook + resubmission) through one core while
    the B-tree chains themselves never cross queues.  Expected shape:
    aggregate IOPS grows strictly with pairs from 1 to 4 as completion
    work spreads over more cores, then flattens once the lanes stop
    being the bottleneck (pairs > threads' demand or pairs > cores).
    """
    rows: List[Dict] = []
    for thread_count in threads:
        base_kiops: Optional[float] = None
        for pairs in queue_pairs:
            bench = BtreeBench(depth, cores=cores, seed=11, model=MQ_NVME,
                               queue_pairs=pairs, irq_steering=True)
            device = bench.kernel.device
            completed_before = device.completed
            [(meter, _latency)] = run_closed_loop(
                bench.sim, duration_ns,
                (thread_count, bench.chain_worker(Hook.NVME)))
            elapsed_s = duration_ns / 1e9
            iops = (device.completed - completed_before) / elapsed_s
            kiops = iops / 1000
            if base_kiops is None:
                base_kiops = kiops
            busiest = max(device.queue_completed)
            total = sum(device.queue_completed) or 1
            rows.append({
                "threads": thread_count,
                "queue_pairs": pairs,
                "klookups": meter.ops_per_sec() / 1000,
                "kiops": kiops,
                "speedup_vs_1q": kiops / base_kiops if base_kiops else 0.0,
                "busiest_q_pct": 100.0 * busiest / total,
            })
    return rows


# ---------------------------------------------------------------------------
# Network pushdown — BPF-oF's naive-vs-pushdown GET shape
# ---------------------------------------------------------------------------


def net_pushdown(depths: Sequence[int] = (1, 2, 3, 4, 5, 6),
                 rtts_us: Sequence[int] = (5, 10, 20, 50),
                 gets: int = 30,
                 seed: int = 17,
                 cores: int = 4) -> List[Dict]:
    """Naive (RPC per B-tree hop) vs pushdown (one EXEC_CHAIN) GETs.

    One client, one storage target, one B-tree per (depth, RTT) cell.
    The naive strategy fetches a page per level and parses it
    client-side, paying the round trip ``depth`` times; pushdown ships
    the verified traversal program once at setup and then pays the
    round trip once per GET while the chain walks the tree in the
    target's NVMe completion path.  Expected shape (BPF-oF): the
    speedup grows with both depth and RTT, approaching the hop count
    once the network dominates the device — at RTT >= 20 us and depth
    >= 4 the pushdown GET is at least 2x faster.
    """
    rows: List[Dict] = []
    for depth in depths:
        for rtt_us in rtts_us:
            rows.append(_net_pushdown_cell(depth, rtt_us, gets, seed,
                                           cores))
    return rows


def _net_pushdown_cell(depth: int, rtt_us: int, gets: int, seed: int,
                       cores: int) -> Dict:
    from repro.net import NetConfig, NetworkFabric, StorageTarget

    sim = Simulator()
    target = StorageTarget(sim, model=NVM2_BENCH,
                           config=KernelConfig(cores=cores, seed=seed))
    tree = load_btree(target.kernel.fs, "/index", depth)
    root = tree.meta.root_offset
    fabric = NetworkFabric(sim, NetConfig(one_way_ns=rtt_us * 1000 // 2,
                                          seed=seed))
    client = target.connect(fabric, "bench-client")
    program = index_traversal_program(fanout=tree.meta.fanout)
    rng = RandomStreams(seed).stream("pushdown-keys")
    keys = [(rng.randrange(tree.meta.num_keys)) * 3 + 1 for _ in range(gets)]
    lat_ns = {"naive": [], "pushdown": []}
    rpc_counts = {"naive": 0, "pushdown": 0}

    def driver():
        chain_id = yield from client.install_chain("/index", program)
        for mode in ("naive", "pushdown"):
            for key in keys:
                start = sim.now
                if mode == "naive":
                    value, found, rpcs = yield from client.remote_btree_get(
                        key, mode="naive", path="/index", root_offset=root)
                else:
                    value, found, rpcs = yield from client.remote_btree_get(
                        key, mode="pushdown", chain_id=chain_id,
                        root_offset=root)
                if not found or value != (key - 1) // 3:
                    raise IoError(f"{mode} GET returned {value} for {key}")
                lat_ns[mode].append(sim.now - start)
                rpc_counts[mode] += rpcs

    sim.run_process(driver())
    naive_us = sum(lat_ns["naive"]) / gets / 1000
    push_us = sum(lat_ns["pushdown"]) / gets / 1000
    return {
        "depth": depth,
        "rtt_us": rtt_us,
        "naive_us": round(naive_us, 2),
        "pushdown_us": round(push_us, 2),
        "speedup": round(naive_us / push_us, 2),
        "naive_rpcs_per_get": round(rpc_counts["naive"] / gets, 2),
        "pushdown_rpcs_per_get": round(rpc_counts["pushdown"] / gets, 2),
        "naive_kiops": round(1e3 / naive_us, 1),
        "pushdown_kiops": round(1e3 / push_us, 1),
    }


# ---------------------------------------------------------------------------
# Sharded cluster — YCSB scaling and crash failover
# ---------------------------------------------------------------------------


def cluster_failover(shard_counts: Sequence[int] = (1, 2, 4, 8),
                     ops: int = 160,
                     initial_keys: int = 48,
                     seed: int = 13,
                     rtt_us: int = 10,
                     workers: int = 8,
                     cores: int = 2,
                     crash_after: int = 15) -> List[Dict]:
    """YCSB over the sharded cluster: IOPS scaling, then a target kill.

    One clean row per shard count (no faults: aggregate IOPS grows with
    targets, modulo the replication round trip single-target clusters
    do not pay), then one row at the largest replicated shard count
    with a power cut armed on target 0 after it has handled
    ``crash_after`` RPCs.  The crash row must show: at least one
    failover, **zero acked writes lost and zero stale reads**
    (ack-after-replica replication + version-stamped reads), a bounded
    availability gap (client timeout + promotion, reported in us), a
    clean fsck on the rejoined target, and chain pushdown still working
    — including on the rejoined target after its re-verify + reinstall.
    """
    replicated = [shards for shards in shard_counts if shards > 1]
    if not replicated:
        raise InvalidArgument(
            f"shard_counts {tuple(shard_counts)!r} needs a count > 1 "
            "(the crash row fails over to a replica)")
    rows = [_cluster_cell(shards, ops, initial_keys, seed, rtt_us,
                          workers, cores, 0)
            for shards in shard_counts]
    crash_shards = max(replicated)
    rows.append(_cluster_cell(crash_shards, ops, initial_keys, seed,
                              rtt_us, workers, cores, crash_after))
    return rows


def _cluster_cell(shards: int, ops: int, initial_keys: int, seed: int,
                  rtt_us: int, workers: int, cores: int,
                  crash_after: int) -> Dict:
    from repro.cluster import ClusterClient, StorageCluster
    from repro.sim.engine import AllOf

    index_keys = 64
    fanout = 16
    spec = (FaultSpec(seed=seed, target_crash_after_rpcs=crash_after)
            if crash_after else None)
    sim = Simulator()
    cluster = StorageCluster(sim, shards, model=NVM2_BENCH, seed=seed,
                             cores=cores,
                             capacity_keys=initial_keys + ops + 8,
                             rtt_us=rtt_us, fault_spec=spec,
                             crash_victim=0)
    cluster.preload([(key, key * 7 + 1) for key in range(initial_keys)])
    index_items = [(key * 3 + 1, key) for key in range(index_keys)]
    root = cluster.build_index("/cindex", index_items, fanout=fanout)
    program = index_traversal_program(fanout=fanout)
    client = ClusterClient(cluster, "ycsb")
    rng = RandomStreams(seed).stream(f"cluster/{shards}/{crash_after}")
    workload = YcsbWorkload(initial_keys, rng, mix="paper")
    plan = [op for op in workload.operations(ops)
            if op.op is not OpType.SCAN]

    def worker(assigned):
        for op in assigned:
            if op.op is OpType.READ:
                yield from client.get(op.key)
            else:  # UPDATE / INSERT both become replicated PUTs
                yield from client.put(op.key, op.value)

    timing = {}
    outcome = {}

    def driver():
        yield from client.install_chains("/cindex", program)
        start = sim.now
        procs = [sim.spawn(worker(plan[w::workers]), name=f"ycsb-{w}")
                 for w in range(workers)]
        yield AllOf(sim, procs)
        timing["elapsed_ns"] = sim.now - start
        # Every acked write must read back at >= its acked version with
        # the acked value — across the crash, from whoever is primary now.
        lost = 0
        for key in sorted(client.acked):
            version_want, value_want = client.acked[key]
            value, version, found = yield from client.get(key)
            if (not found or version < version_want
                    or (version == version_want and value != value_want)):
                lost += 1
        outcome["lost_acked"] = lost
        # Chain pushdown against the current primaries.
        chain_ok = True
        for index_key, expect in index_items[:: max(1, index_keys // 4)]:
            value, found = yield from client.index_get(index_key,
                                                       root_offset=root)
            chain_ok = chain_ok and found and value == expect
        if crash_after and cluster.crash_ts is not None:
            report = yield from cluster.rejoin(0)
            outcome["rejoin"] = report
            yield from client.reinstall_chains(0)
            # The rejoined target must serve its freshly re-verified
            # chain (queried directly, not via routing).
            index_key, expect = index_items[0]
            value, found, _rpcs = \
                yield from client.remotes[0].remote_btree_get(
                    index_key, mode="pushdown",
                    chain_id=client.chain_ids[0], root_offset=root)
            chain_ok = chain_ok and found and value == expect
        outcome["chain_ok"] = chain_ok

    sim.run_process(driver())
    elapsed_us = timing["elapsed_ns"] / 1000
    gap_ns = client.availability_gap_ns
    rejoin = outcome.get("rejoin")
    return {
        "shards": shards,
        "ops": len(plan),
        "kiops": round(len(plan) / elapsed_us * 1000, 2),
        "crash": 1 if (crash_after and cluster.crash_ts is not None) else 0,
        "failovers": cluster.failovers,
        "gap_us": round(gap_ns / 1000, 1) if gap_ns is not None else 0.0,
        "lost_acked": outcome["lost_acked"],
        "stale_reads": client.stale_reads,
        "replayed_txns": rejoin.replayed_txns if rejoin else 0,
        "caught_up": rejoin.caught_up if rejoin else 0,
        "fsck": ("ok" if rejoin is None or rejoin.fsck_ok else "FAIL"),
        "chain_ok": 1 if outcome["chain_ok"] else 0,
    }


# ---------------------------------------------------------------------------
# Crash recovery — fsync cost and mount-time replay vs checkpoint cadence
# ---------------------------------------------------------------------------
#
# A metadata-heavy workload (create, sector-aligned writes, fsync every
# few files) runs against the journaled file system at several
# ``checkpoint_every_txns`` settings, then the machine loses power and
# remounts.  Frequent checkpoints keep the log short (cheap recovery, few
# replayed transactions) but pay checkpoint writes during normal
# operation; ``0`` (checkpoint only when the log would overflow) makes
# fsync cheap and steady but leaves a long tail to replay at mount.
# Whatever the cadence, recovery must replay to exactly the last fsync:
# fsck clean, every fsynced file intact.


def _run_workload(kernel, files, fsync_every, write_kib, seed=11):
    """Create ``files`` files, fsyncing every ``fsync_every``-th one."""
    import random

    rng = random.Random(seed)
    sim = kernel.sim
    proc = kernel.spawn_process("recovery-bench")
    fsync_ns = []
    synced = []
    pending = []
    for index in range(files):
        path = f"/f{index:04d}"
        fd = kernel.run_syscall(kernel.sys_open(proc, path, create=True))
        data = rng.randbytes(write_kib * 1024)
        kernel.run_syscall(kernel.sys_pwrite(proc, fd, 0, data))
        pending.append((path, data))
        if (index + 1) % fsync_every == 0:
            start = sim.now
            kernel.run_syscall(kernel.sys_fsync(proc, fd))
            fsync_ns.append(sim.now - start)
            synced.extend(pending)
            pending.clear()
    return fsync_ns, synced

def crash_recovery_sweep(files=120, fsync_every=3, write_kib=8,
                         cadences=(0, 4, 16, 64), seed=11):
    rows = []
    for cadence in cadences:
        sim = Simulator()
        kernel = Kernel(sim, NVM_GEN2, KernelConfig(
            seed=seed, capacity_sectors=1 << 20, write_cache_depth=8,
            journal=JournalConfig(journal_blocks=256,
                                  checkpoint_every_txns=cadence)))
        fsync_ns, synced = _run_workload(kernel, files, fsync_every,
                                         write_kib, seed=seed)
        journal = kernel.fs.journal
        journal_kib = journal.bytes_written / 1024
        checkpoints = journal.checkpoints
        kernel.crash()
        report = kernel.recover()
        audit = fsck(kernel.fs)
        intact = sum(
            1 for path, data in synced
            if _read_file(kernel.fs, path) == data)
        rows.append({
            "checkpoint_every": cadence or "overflow",
            "files": files,
            "fsyncs": len(fsync_ns),
            "fsync_avg_us": (sum(fsync_ns) / len(fsync_ns) / 1000
                             if fsync_ns else 0.0),
            "journal_kib": journal_kib,
            "checkpoints": checkpoints,
            "replayed_txns": report.replayed_txns,
            "fsck": "ok" if audit.ok else "FAIL",
            "recovered_files": f"{intact}/{len(synced)}",
        })
    return rows


def _read_file(fs, path):
    try:
        inode = fs.lookup(path)
    except Exception:
        return None
    return fs.read_sync(inode, 0, inode.size)



# ---------------------------------------------------------------------------
# LSM point gets — BPF chains vs application traversal (the RocksDB shape)
# ---------------------------------------------------------------------------
#
# Each get that misses the memtable probes bloom-admitted SSTables with a
# 3-hop dependent chain (root index -> index block -> data block): the
# paper's motivating application shape, where the index blocks are pure
# auxiliary I/O the application throws away.  Compares application-level
# gets with BPF-chain gets over a populated store under a zipfian read
# workload, checking every accelerated get against the reference.


def _setup(num_keys):
    kernel = Kernel(Simulator(), NVM2_BENCH, KernelConfig(cores=6))
    bpf = StorageBpf(kernel)
    lsm = LsmTree(kernel.fs, "/db", memtable_limit=4096, l0_limit=4)
    for key in range(num_keys):
        lsm.put(key, key * 3 + 1)
    lsm.flush()
    keys = ZipfianGenerator(num_keys, RandomStreams(8).stream("keys"),
                            theta=0.9)
    return kernel, bpf, lsm, keys


def lsm_get(num_keys=30_000, reads=400):
    kernel, bpf, lsm, keys = _setup(num_keys)
    program = index_traversal_program()
    bpf.verify_program(program)
    proc = kernel.spawn_process()
    probe_list = [keys.next_key() for _ in range(reads)]
    checked = 0

    def fd_for(fds, path, install):
        if path not in fds:
            fd = yield from kernel.sys_open(proc, path)
            if install:
                yield from bpf.install(proc, fd, program)
            fds[path] = fd
        return fds[path]

    def baseline_get(fds, probe):
        # 3 read() round trips + parses per candidate table.
        for path, table in lsm.candidate_tables(probe):
            fd = yield from fd_for(fds, path, install=False)
            offset = table.root_index_offset
            for _hop in (2, 1):
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                yield from kernel.cpus.run_thread(
                    kernel.cost.user_process_ns)
                _idx, child = search_page(result.data, probe)
                offset = child
            result = yield from kernel.sys_pread(proc, fd, offset,
                                                 PAGE_SIZE)
            yield from kernel.cpus.run_thread(
                kernel.cost.user_process_ns)
            idx, _value = search_page(result.data, probe)
            if idx >= 0:
                entry_key = struct.unpack_from(
                    "<Q", result.data, 16 + 16 * idx)[0]
                if entry_key == probe:
                    break

    def chain_get(fds, probe):
        # One 3-hop chain per candidate table.
        nonlocal checked
        expected = lsm.get(probe)
        got = None
        for path, table in lsm.candidate_tables(probe):
            fd = yield from fd_for(fds, path, install=True)
            result = yield from bpf.read_chain_robust(
                proc, fd, table.root_index_offset, PAGE_SIZE,
                args=(probe,))
            if result.value2 == 1:
                got = result.value
                break
        assert got == expected, (probe, got, expected)
        checked += 1

    def client(get_one):
        def make_worker(_index):
            yield from ()  # candidate set varies per key; fds open lazily
            fds = {}
            probes = iter(probe_list)
            return lambda: get_one(fds, next(probes))

        return make_worker

    baseline_ns = mean_latency(kernel, client(baseline_get), reads)
    chain_ns = mean_latency(kernel, client(chain_get), reads)
    return [{
        "reads": reads,
        "sstables": lsm.table_count(),
        "baseline_us_per_get": baseline_ns / 1000,
        "chain_us_per_get": chain_ns / 1000,
        "speedup": baseline_ns / chain_ns,
        "verified_against_reference": checked,
    }]
