"""Metric definitions: one table for end-to-end, one for per-layer.

``BENCHMARK.json`` at the repo root is the contract the driver reads;
these tables are the same lists with the extra facts a reader needs
(which clock, whether a value repeats exactly, what should move it).
``tests/test_bench_e2e.py`` checks the two agree.

*host* = wall clock of the machine running the simulator;
*sim* = simulated nanoseconds of the modelled machine.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple, Sequence, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "LAYERS", "EndToEnd", "PerLayer",
           "percentile_ns", "tail_percentile", "metric_units"]


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which it may worsen.
    bound: float
    clock: str
    meaning: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    #: True when the value is a pure function of (code, seed): two runs
    #: of one commit must agree to the last bit.
    exact: bool
    meaning: str


# Bounds are set from the seed-to-seed spread measured on this commit
# (README, "Bounds"): each is about three times the widest
# interquartile spread seen on any workload, and never above 0.25, the
# most the driver accepts.
END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, "host",
             "process start to first timed rep: imports, build, preload, "
             "verify, install, warm-up rep; median of 3 fresh processes"),
    EndToEnd("host_ops_per_s", "ops/s", "higher", 0.25, "host",
             "primary-path operations simulated per host wall second, "
             "from the fast-quartile timed rep"),
    EndToEnd("host_peak_rss_mb", "MB", "lower", 0.10, "host",
             "ru_maxrss of the workload's process at exit"),
    EndToEnd("sim_ops_per_s", "ops/s", "higher", 0.06, "sim",
             "primary-path operations per simulated second"),
    EndToEnd("sim_p50_us", "us", "lower", 0.06, "sim",
             "median simulated latency of the workload's latency op"),
    EndToEnd("sim_p99_us", "us", "lower", 0.25, "sim",
             "p99 of the same (highest percentile with >= 10 samples "
             "beyond it when fewer than 1000 samples exist)"),
    EndToEnd("sim_speedup_x", "x", "higher", 0.10, "sim",
             "primary sim_ops_per_s / reference sim_ops_per_s"),
)

#: Packages under ``src/repro/`` that the span trace sees, plus the
#: benchmark's own driver code (``bench``), so host self time sums to 100.
LAYERS: Tuple[str, ...] = ("sim", "ebpf", "device", "kernel", "core",
                           "structures", "workloads", "net", "cluster",
                           "qos", "compact")


def _generic() -> List[PerLayer]:
    rows: List[PerLayer] = []
    for layer in LAYERS:
        rows.append(PerLayer(f"{layer}.calls_per_op", "count", "lower",
                             True, f"traced calls into {layer} per op"))
        rows.append(PerLayer(f"{layer}.host_self_pct", "%", "lower", False,
                             f"share of the traced rep's host time spent "
                             f"in {layer} itself"))
        rows.append(PerLayer(f"{layer}.sim_self_us_per_op", "us", "lower",
                             True, f"simulated self time of {layer} spans "
                             f"inside an operation, per op"))
    rows.append(PerLayer("bench.host_self_pct", "%", "lower", False,
                         "share of the traced rep's host time spent in "
                         "this benchmark's own driver code"))
    return rows


def _specific() -> List[PerLayer]:
    P = PerLayer
    return [
        # -- sim ---------------------------------------------------------
        P("sim.events", "count", "lower", True,
          "events dispatched by the engine in one rep"),
        P("sim.events_per_op", "count", "lower", True,
          "events dispatched per operation"),
        P("sim.host_us_per_event", "us", "lower", False,
          "untraced rep wall time / events dispatched"),
        P("sim.heap_depth_avg", "count", "lower", True,
          "mean pending-event count seen at dispatch"),
        # -- ebpf --------------------------------------------------------
        P("ebpf.verify_host_ms", "ms", "lower", False,
          "host time inside the verifier, set-up plus one rep"),
        P("ebpf.verify_states", "count", "lower", True,
          "VerifierStats.states_explored, summed over those verifies"),
        P("ebpf.vm_runs", "count", "lower", True,
          "Vm.run calls in one rep"),
        P("ebpf.vm_insns", "count", "lower", True,
          "instructions retired in one rep"),
        P("ebpf.vm_insns_per_op", "count", "lower", True,
          "instructions retired per operation"),
        P("ebpf.vm_host_ns_per_insn", "ns", "lower", False,
          "host self time of Vm.run / instructions retired"),
        P("ebpf.helper_calls", "count", "lower", True,
          "helper calls made by programs in one rep"),
        # -- device ------------------------------------------------------
        P("device.nvme_cmds_per_op", "count", "lower", True,
          "NVMe commands completed per operation"),
        P("device.sim_busy_pct", "%", "higher", True,
          "service slots busy: sum of service times / (parallelism x "
          "simulated duration), busiest device"),
        P("device.qpair_busiest_pct", "%", "lower", True,
          "share of completions on the busiest queue pair"),
        P("device.flushes", "count", "lower", True, "NVMe FLUSH commands"),
        P("device.media_reads", "count", "lower", True,
          "sectors read from media"),
        P("device.media_writes", "count", "lower", True,
          "sectors written to media"),
        P("device.writecache_evictions", "count", "lower", True,
          "write-cache records destaged by overflow"),
        # -- kernel ------------------------------------------------------
        P("kernel.syscalls_per_op", "count", "lower", True,
          "boundary crossings per operation"),
        P("kernel.irqs_per_op", "count", "lower", True,
          "completion interrupts per operation"),
        P("kernel.cpu_busy_pct", "%", "lower", True,
          "simulated cores busy, busiest machine"),
        P("kernel.fsyncs", "count", "lower", True, "fsync syscalls"),
        P("kernel.journal_txns", "count", "lower", True,
          "journal transactions committed"),
        P("kernel.journal_bytes_per_write", "bytes", "lower", True,
          "journal bytes written per write operation"),
        P("kernel.journal_checkpoints", "count", "lower", True,
          "journal checkpoints taken"),
        P("kernel.extent_unmaps", "count", "lower", True,
          "extent unmap notifications from the file system"),
        # -- core --------------------------------------------------------
        P("core.chains_started", "count", "lower", True, "chains started"),
        P("core.chains_ok_pct", "%", "higher", True,
          "chains that completed in kernel / chains started"),
        P("core.hops_per_chain", "count", "lower", True,
          "(chains started + resubmissions) / chains started"),
        P("core.resubmissions", "count", "lower", True,
          "descriptors recycled from the completion hook"),
        P("core.split_fallbacks", "count", "lower", True,
          "chains handed back because a hop spanned extents"),
        P("core.extent_aborts", "count", "lower", True,
          "chains aborted with EEXTENT"),
        P("core.fault_fallbacks", "count", "lower", True,
          "chains degraded after injected faults"),
        P("core.extent_cache_refreshes", "count", "lower", True,
          "NVMe-layer extent snapshots installed"),
        P("core.extent_cache_invalidations", "count", "lower", True,
          "NVMe-layer extent snapshots invalidated"),
        # -- structures / workloads --------------------------------------
        P("structures.build_host_s", "s", "lower", False,
          "host time in BTree.build / SsTable.build during set-up"),
        P("structures.pages_per_lookup", "count", "lower", True,
          "search_page calls per operation on the reference path"),
        P("structures.search_host_ns_per_call", "ns", "lower", False,
          "host self time of search_page on the reference path"),
        P("workloads.gen_host_us_per_op", "us", "lower", False,
          "host self time of YcsbWorkload.next_operation per op"),
        # -- net ---------------------------------------------------------
        P("net.rpcs_per_op", "count", "lower", True,
          "Connection.call invocations per operation"),
        P("net.bytes_per_op", "bytes", "lower", True,
          "frame bytes handed to the fabric per operation"),
        P("net.frames_sent", "count", "lower", True,
          "frames handed to the fabric"),
        P("net.retries", "count", "lower", True, "RPC retransmissions"),
        P("net.dedup_hits", "count", "lower", True,
          "retransmissions answered from the reply cache"),
        P("net.max_inflight", "count", "lower", True,
          "largest window occupancy on any connection"),
        P("net.wire_host_us_per_frame", "us", "lower", False,
          "host self time of wire encode/decode per frame"),
        # -- cluster -----------------------------------------------------
        P("cluster.replicated_per_put", "count", "higher", True,
          "replica acks / primary PUTs"),
        P("cluster.replica_lag_max", "count", "lower", True,
          "largest acked-but-unreplicated count on any shard"),
        P("cluster.shard_busiest_pct", "%", "lower", True,
          "share of handled RPCs on the busiest target"),
        P("cluster.failovers", "count", "lower", True, "must be 0"),
        P("cluster.stale_reads", "count", "lower", True, "must be 0"),
        P("cluster.lost_acked", "count", "lower", True, "must be 0"),
        # -- qos ---------------------------------------------------------
        P("qos.admit_rejects", "count", "lower", True,
          "admission refusals"),
        P("qos.chain_throttles", "count", "lower", True,
          "chain resubmissions delayed by pacing"),
        P("qos.throttle_sim_us", "us", "lower", True,
          "simulated delay added by pacing"),
        P("qos.victim_p99_x_alone", "x", "lower", True,
          "victim p99 with QoS on / victim p99 alone"),
        P("qos.aggressor_share_pct", "%", "lower", True,
          "aggressor ops / all ops with QoS on"),
        P("qos.wfq_host_ns_per_cmd", "ns", "lower", False,
          "host self time of WFQ push+pop per queued command"),
        # -- compact -----------------------------------------------------
        P("compact.boundary_bytes_per_entry", "bytes", "lower", True,
          "bytes crossing the syscall boundary per input entry"),
        P("compact.bytes_user_over_offloaded", "x", "higher", True,
          "boundary bytes, user mode / offloaded mode"),
        P("compact.kernel_bytes", "bytes", "lower", True,
          "bytes moved entirely below the boundary"),
        P("compact.entries_emitted", "count", "lower", True,
          "entries streamed into the merge sink"),
        P("compact.entries_dropped", "count", "lower", True,
          "tombstones retired by the merge"),
        P("compact.chain_hops", "count", "lower", True,
          "pages walked by merge chains"),
        P("compact.write_amp", "x", "lower", True,
          "media bytes written during the merge / output table bytes"),
        P("compact.sim_us", "us", "lower", True,
          "simulated duration of the merge"),
        # -- the tools themselves ---------------------------------------
        P("faults.injected", "count", "lower", True, "must be 0"),
        P("obs.trace_overhead_x", "x", "lower", False,
          "span-traced rep wall / untraced rep wall"),
        P("obs.spans", "count", "lower", True,
          "spans recorded in the traced rep"),
        P("perf.profiler_overhead_x", "x", "lower", False,
          "rep wall under repro.perf.profiling() / untraced rep wall"),
        P("bench.rep_spread_pct", "%", "lower", False,
          "(max - min) / median of the untraced reps' wall time"),
        P("bench.cpu_over_wall", "x", "higher", False,
          "process_time / wall over the untraced reps; < 0.9 = disturbed"),
        P("bench.latency_samples", "count", "higher", True,
          "samples behind sim_p50_us / sim_p99_us"),
        P("bench.paper_err_pct", "%", "lower", True,
          "btree_chain speed-up against the paper's 2.5x; the model is "
          "otherwise unvalidated"),
        P("bench.ops_failed_pct", "%", "lower", True,
          "failed / attempted operations; must be 0"),
    ]


PER_LAYER: Tuple[PerLayer, ...] = tuple(_generic() + _specific())


def metric_units() -> Dict[str, str]:
    units = {m.name: m.unit for m in END_TO_END}
    units.update({m.name: m.unit for m in PER_LAYER})
    return units


def percentile_ns(ordered: Sequence[int], fraction: float) -> int:
    """Nearest-rank percentile of already sorted integer samples."""
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[int]) -> Tuple[float, int]:
    """``(fraction, value)`` of the tail reported as ``sim_p99_us``.

    p99 when at least 1000 samples exist; otherwise the highest
    percentile that still leaves 10 samples beyond it (never below the
    median).
    """
    ordered = sorted(samples)
    count = len(ordered)
    fraction = 0.99 if count >= 1000 else max(0.5, 1.0 - 10.0 / count)
    return fraction, percentile_ns(ordered, fraction)
