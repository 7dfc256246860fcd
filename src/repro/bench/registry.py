"""The experiment table: every experiment this repo reproduces, once.

Each :class:`Experiment` row carries everything any front end needs to
know about one experiment: its name (the CLI command and the
``benchmarks/golden/<name>_quick.json`` stem), its title, the function
that produces its rows, the literal keyword arguments of its two scales
and its shape checks.  ``python -m repro
{report,experiment,metrics,profile}``,
``scripts/generate_experiments_report.py``, the golden-JSON test and the
docs guard all iterate :data:`EXPERIMENTS`; nothing else declares a
scale, a title or a check (``docs/profiling.md``, "Adding an
experiment").

``quick`` is the miniature scale (seconds; what ``benchmarks/golden/``
pins) and ``full`` the paper's.  ``check(rows)`` asserts the shape
invariants that hold at both scales; ``check_full(rows)`` the ones that
need the full sweep (a specific depth, thread count or paper band).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bench.experiments import (
    ablation_app_cache,
    ablation_invalidation_rate,
    ablation_resubmit_bound,
    ablation_vm_mode,
    cluster_failover,
    compaction,
    crash_consistency,
    crash_recovery_sweep,
    extent_stability,
    fault_resilience,
    fig1_latency_breakdown,
    fig3_throughput,
    fig3c_latency,
    fig3d_iouring,
    interference,
    lsm_get,
    mq_scaling,
    net_pushdown,
    table1_breakdown,
    tenants,
)
from repro.perf import profiling

__all__ = ["BY_NAME", "EXPERIMENTS", "Experiment"]

Rows = List[Dict[str, Any]]


@dataclass(frozen=True)
class Experiment:
    """One row of the table (see the module docstring for the fields)."""

    name: str
    title: str
    func: Callable[..., Rows]
    quick: Dict[str, Any]
    full: Dict[str, Any]
    check: Callable[[Rows], None]
    check_full: Optional[Callable[[Rows], None]] = None

    def run(self, quick: bool) -> Rows:
        return self.func(**(self.quick if quick else self.full))

    def run_counted(self, quick: bool) -> Tuple[Rows, Dict[str, Any]]:
        """``run`` inside the counting hooks: the rows and their ``work``."""
        with profiling() as counts:
            rows = self.run(quick)
        return rows, counts.work()


# ---------------------------------------------------------------------------
# Shape checks
# ---------------------------------------------------------------------------


def _check_fig1(rows):
    by_device = {row["device"]: row["software_pct"] for row in rows}
    # The software share grows monotonically with device speed.
    pcts = [row["software_pct"] for row in rows]
    assert pcts == sorted(pcts)
    assert (by_device["HDD"] < by_device["NAND"] < by_device["NVM-1"]
            < by_device["NVM-2"])
    # Bands the paper reports.
    assert by_device["HDD"] < 1.0
    assert by_device["NAND"] < 10.0
    assert 8.0 <= by_device["NVM-1"] <= 18.0
    assert 40.0 <= by_device["NVM-2"] <= 55.0


def _check_table1(rows):
    by_layer = {row["layer"]: row for row in rows}
    # Every layer within 2 % of the paper's measurement.
    for layer, row in by_layer.items():
        assert abs(row["measured_ns"] - row["paper_ns"]) <= \
            max(2, 0.02 * row["paper_ns"]), layer
    # The file system dominates the software side; the device is ~half.
    assert by_layer["ext4"]["measured_pct"] > 25.0
    assert 45.0 <= by_layer["storage device"]["measured_pct"] <= 55.0


def _cell(rows, depth, threads):
    return next(row for row in rows
                if row["depth"] == depth and row["threads"] == threads)


def _check_fig3a(rows):
    # Modest but real gains, bounded the way the paper reports.
    speedups = [row["speedup"] for row in rows]
    assert all(speedup > 1.05 for speedup in speedups)
    assert max(speedups) <= 1.35


def _check_full_fig3a(rows):
    # Baseline saturates at 6 threads (6 cores).
    assert _cell(rows, 6, 12)["baseline_klookups"] < \
        _cell(rows, 6, 6)["baseline_klookups"] * 1.05


def _check_fig3b(rows):
    # The NVMe hook beats the baseline everywhere.
    assert all(row["speedup"] > 1.2 for row in rows)
    # The headline factor: ~2.5x once the baseline is CPU-saturated.
    assert 2.2 <= max(row["speedup"] for row in rows) <= 3.2


def _check_full_fig3b(rows):
    # Gains grow once the baseline saturates at 6 threads...
    assert _cell(rows, 6, 12)["speedup"] > _cell(rows, 6, 6)["speedup"] * 1.2
    # ...and the baseline itself stops scaling there.
    assert _cell(rows, 6, 12)["baseline_klookups"] < \
        _cell(rows, 6, 6)["baseline_klookups"] * 1.05
    # Deeper trees gain more (at saturation).
    assert _cell(rows, 10, 12)["speedup"] >= \
        _cell(rows, 2, 12)["speedup"] * 0.95


def _check_fig3c(rows):
    # Latency reduction grows with depth toward the paper's ~49 %.
    reductions = [row["nvme_reduction_pct"] for row in rows]
    assert all(b >= a for a, b in zip(reductions, reductions[1:]))


def _check_full_fig3c(rows):
    by_depth = {row["depth"]: row for row in rows}
    assert 40.0 <= by_depth[16]["nvme_reduction_pct"] <= 52.0
    # The syscall hook helps, but much less.
    assert by_depth[10]["syscall_us"] < by_depth[10]["baseline_us"]
    assert by_depth[10]["nvme_us"] < by_depth[10]["syscall_us"]
    # Depth 1: nothing to chain, so the hook cannot win.
    assert by_depth[1]["nvme_reduction_pct"] < 0


def _check_fig3d(rows):
    # BPF never loses, and the speedup grows with batch size at every
    # depth (the headline shape).
    assert all(row["speedup"] > 1.0 for row in rows)
    by_depth = {}
    for row in rows:
        by_depth.setdefault(row["depth"], []).append(row["speedup"])
    for depth, speedups in by_depth.items():
        assert speedups[-1] > speedups[0] * 1.3, f"depth {depth}"


def _check_full_fig3d(rows):
    # Deep trees exceed the paper's >2.5x bar.
    assert max(row["speedup"] for row in rows if row["depth"] == 10) > 2.5
    # Deeper trees gain more at equal batch size.
    big_batch = {row["depth"]: row["speedup"] for row in rows
                 if row["batch"] == 32}
    assert big_batch[10] > big_batch[3]


def _check_stability(rows):
    row = rows[0]
    assert row["extent_changes"] > 0
    # Every unmap invalidated the NVMe-layer cache exactly once.
    assert row["invalidations"] == row["unmap_changes"]


def _check_full_stability(rows):
    row = rows[0]
    # Changes are O(minutes) apart, like the paper's 159 s.
    assert 60 <= row["mean_change_interval_s"] <= 400
    # Unmapping changes are rare: single digits per extrapolated day.
    assert row["unmaps_per_24h"] <= 10


def _check_hooks(rows):
    for row in rows:
        # Each deeper hook strictly improves on the previous path.
        assert row["nvme_us"] < row["syscall_us"] < row["baseline_us"]
        # The syscall hook saves only crossings + app processing; the
        # NVMe hook saves several kernel layers per hop (> 30 %).
        assert 1 - row["syscall_us"] / row["baseline_us"] < 0.25
        assert 1 - row["nvme_us"] / row["baseline_us"] > 0.30


def _check_bound(rows):
    # Tighter bounds -> more kills and higher latency, monotonically.
    latencies = [row["mean_latency_us"] for row in rows]
    assert all(a >= b for a, b in zip(latencies, latencies[1:]))
    kills = [row["kills_per_lookup"] for row in rows]
    assert all(a >= b for a, b in zip(kills, kills[1:]))


def _check_full_bound(rows):
    by_bound = {row["bound"]: row for row in rows}
    # A bound >= the chain length never kills.
    assert by_bound[64]["kills_per_lookup"] == 0
    # ceil(24/2) - 1 = 11 kills per lookup at the tightest bound.
    assert by_bound[2]["kills_per_lookup"] == 11


def _check_churn(rows):
    # No churn -> no invalidations.
    assert rows[0]["invalidations"] == 0
    # More churn -> more invalidations and lower throughput.
    invalidations = [row["invalidations"] for row in rows]
    assert all(a <= b for a, b in zip(invalidations, invalidations[1:]))
    assert rows[-1]["invalidations"] > 0
    assert rows[-1]["klookups_per_s"] < rows[0]["klookups_per_s"]


def _check_full_churn(rows):
    # At rare churn (5 ms) the cost is negligible (< 5 %).
    assert rows[1]["klookups_per_s"] > 0.95 * rows[0]["klookups_per_s"]


def _check_vmmode(rows):
    by_mode = {row["mode"]: row for row in rows}
    # The compiled tier is strictly faster, and both beat the baseline.
    assert by_mode["block"]["mean_latency_us"] < \
        by_mode["interp"]["mean_latency_us"]
    assert by_mode["interp"]["speedup_vs_baseline"] > 1.0
    # But the delta is small relative to device time (< 10 %): the paper's
    # design works even with the interpreter.
    assert by_mode["block"]["mean_latency_us"] > \
        0.90 * by_mode["interp"]["mean_latency_us"]


def _check_appcache(rows):
    # Every cached level strictly lowers latency and device reads.
    latencies = [row["mean_latency_us"] for row in rows]
    assert all(a > b for a, b in zip(latencies, latencies[1:]))
    reads = [row["device_reads_per_lookup"] for row in rows]
    assert all(a > b for a, b in zip(reads, reads[1:]))


def _check_full_appcache(rows):
    # Caching five levels saves roughly five device round trips (~2.5 us
    # each on gen-2 Optane).
    assert rows[0]["mean_latency_us"] - rows[-1]["mean_latency_us"] > 8.0


def _check_lsmget(rows):
    for row in rows:
        # Every accelerated get matched the reference implementation.
        assert row["verified_against_reference"] == row["reads"]
        # The 3-hop chain wins by a solid margin per get.
        assert row["speedup"] > 1.25


def _check_interference(rows):
    alone, loaded = rows
    # Chains visibly pressure plain readers (the fairness concern is
    # real)...
    assert loaded["plain_mean_latency_us"] > alone["plain_mean_latency_us"]
    # ...but device arbitration prevents outright starvation.
    assert loaded["plain_kreads_per_s"] > 0.5 * alone["plain_kreads_per_s"]
    assert alone["chained_resubmissions"] == 0
    assert loaded["chained_resubmissions"] > 0


def _check_full_interference(rows):
    # The accounting saw every chain process.
    assert rows[1]["chain_processes_accounted"] == 12


def _check_resilience(rows):
    """The graceful-degradation invariants any run must satisfy."""
    clean = rows[0]
    assert clean["fault_rate"] == 0.0
    # A no-fault run injects, retries, and degrades nothing.
    assert clean["injected"] == 0
    assert clean["retries"] == 0
    assert clean["fallbacks"] == 0
    assert clean["surfaced_errors"] == 0
    assert clean["availability_pct"] == 100.0
    for row in rows[1:]:
        # Faults were actually injected and handled.
        assert row["injected"] > 0
        assert row["retries"] > 0
        # Bounded retries: the retry machinery never loops unboundedly.
        assert row["retries"] <= row["injected"] * 8
        # At the modest rates swept here, chained lookups stay available.
        assert row["availability_pct"] >= 90.0
        # Paying for recovery: tail latency does not beat the clean run.
        assert row["p99_latency_us"] >= clean["p99_latency_us"] * 0.95
    # 1 % transient faults must not visibly dent availability.
    one_pct = next(row for row in rows if row["fault_rate"] == 0.01)
    assert one_pct["availability_pct"] >= 99.0


def _check_crash(rows):
    # Every enumerated power cut recovers to the last commit point.
    assert rows
    for row in rows:
        assert row["fsck"] == "ok", row
        assert row["verdict"] == "consistent", row


def _check_recovery(rows):
    """The journaling trade-off any run must exhibit."""
    for row in rows:
        assert row["fsck"] == "ok"
        intact, total = map(int, row["recovered_files"].split("/"))
        # Every fsynced file survives the crash byte-for-byte.
        assert intact == total
    by_cadence = {row["checkpoint_every"]: row for row in rows}
    lazy = by_cadence["overflow"]
    eager = by_cadence[min(c for c in by_cadence if c != "overflow")]
    # Eager checkpointing shortens the log left to replay at mount.
    assert eager["replayed_txns"] <= lazy["replayed_txns"]
    # ... and actually checkpoints during the run.
    assert eager["checkpoints"] > lazy["checkpoints"]


def _check_scale(rows):
    """The scaling invariants any run must satisfy."""
    groups = {}
    for row in rows:
        groups.setdefault(row["threads"], []).append(row)
    for threads, group in groups.items():
        by_pairs = {row["queue_pairs"]: row for row in group}
        # One pair concentrates every completion on one queue.
        assert by_pairs[1]["busiest_q_pct"] == 100.0
        # Aggregate IOPS strictly increases from 1 to 4 pairs.
        swept = [pairs for pairs in (1, 2, 4) if pairs in by_pairs]
        for low, high in zip(swept, swept[1:]):
            assert by_pairs[high]["kiops"] > by_pairs[low]["kiops"], (
                f"threads={threads}: {high} pairs not faster than {low}")
        # Steering spreads completions: no pair hogs the device.
        for pairs, row in by_pairs.items():
            if pairs > 1:
                assert row["busiest_q_pct"] < 150.0 / pairs
        # Spreading IRQ work over 4 cores buys a real speedup.
        if 4 in by_pairs:
            assert by_pairs[4]["speedup_vs_1q"] >= 1.2


def _check_pushdown(rows):
    """The pushdown invariants any run must satisfy."""
    for row in rows:
        # Pushdown is always exactly one RPC; naive pays one per hop.
        assert row["pushdown_rpcs_per_get"] == 1.0
        assert row["naive_rpcs_per_get"] >= row["depth"]
        # Pushdown never loses at depth >= 2 (at depth 1 both sides do
        # one round trip, so it is a wash).
        if row["depth"] >= 2:
            assert row["speedup"] > 1.0, row
        # The acceptance criterion: >= 2x once the network dominates.
        if row["depth"] >= 4 and row["rtt_us"] >= 20:
            assert row["speedup"] >= 2.0, row
    # Speedup grows with RTT at fixed depth: more network to save.
    by_depth = {}
    for row in rows:
        by_depth.setdefault(row["depth"], []).append(row)
    for depth, group in by_depth.items():
        group.sort(key=lambda row: row["rtt_us"])
        for low, high in zip(group, group[1:]):
            if depth >= 2:
                assert high["speedup"] >= low["speedup"], (depth, low, high)


def _check_cluster(rows):
    """The durability/failover invariants any run must satisfy."""
    clean = [row for row in rows if row["crash"] == 0]
    crash = [row for row in rows if row["crash"] == 1]
    assert len(crash) == 1, "exactly one armed-crash row"
    for row in rows:
        # The headline guarantees: nothing acked is ever lost, and no
        # read is ever answered below its acked version.
        assert row["lost_acked"] == 0, row
        assert row["stale_reads"] == 0, row
        assert row["fsck"] == "ok", row
        assert row["chain_ok"] == 1, row
    # Aggregate IOPS grows with shard count across replicated configs
    # (shards=1 pays no replication round trip, so it is excluded).
    replicated = sorted((row for row in clean if row["shards"] > 1),
                        key=lambda row: row["shards"])
    for low, high in zip(replicated, replicated[1:]):
        assert high["kiops"] > low["kiops"], (low, high)
    row = crash[0]
    # The kill really happened, was detected, and was survived.
    assert row["failovers"] >= 1, row
    assert row["gap_us"] > 0, row
    # Detection is the client's retransmission budget plus promotion:
    # bounded well under a tenth of a simulated second.
    assert row["gap_us"] < 100_000, row
    # Rejoin pulled the records the crashed target missed.
    assert row["caught_up"] > 0, row


def _check_tenants(rows):
    alone, off, on = rows
    # The aggressor really does wreck the victim's tail without QoS...
    assert off["victim_p99_x_alone"] > 5.0
    # ...and QoS pulls it back to within 2x of the unloaded baseline...
    assert on["victim_p99_x_alone"] <= 2.0
    # ...without sacrificing aggregate throughput (>= 90 % of qos-off).
    assert on["aggregate_kops_per_s"] >= 0.9 * off["aggregate_kops_per_s"]
    # The aggressor is shaped, not starved.
    assert on["aggressor_kops_per_s"] > 0
    assert alone["aggressor_kops_per_s"] == 0


def _check_compaction(rows):
    by_mode = {row["mode"]: row for row in rows}
    user = by_mode["user"]
    offloaded = by_mode["offloaded"]
    remote = by_mode["remote"]
    # All three modes produce byte-identical output tables.
    for row in (offloaded, remote):
        assert row["output_kb"] == user["output_kb"]
        assert row["output_entries"] == user["output_entries"]
        assert row["dropped"] == user["dropped"]
    # Offload moves at least 5x fewer bytes across the boundary
    # (acceptance floor; in practice it is orders of magnitude).
    assert user["boundary_kb"] >= 5 * offloaded["boundary_kb"]
    assert user["boundary_kb"] >= 5 * remote["boundary_kb"]


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment(
        name="fig1",
        title="Figure 1 — kernel overhead per device",
        func=fig1_latency_breakdown,
        quick={"reads": 50},
        full={"reads": 300},
        check=_check_fig1,
    ),
    Experiment(
        name="table1",
        title="Table 1 — 512 B read() breakdown",
        func=table1_breakdown,
        quick={"reads": 50},
        full={"reads": 300},
        check=_check_table1,
    ),
    Experiment(
        name="fig3a",
        title="Figure 3a — syscall hook throughput",
        func=fig3_throughput,
        quick={"hook": "syscall", "depths": (4,), "threads": (1, 6),
               "duration_ns": 2_000_000},
        full={"hook": "syscall", "depths": (2, 6, 10),
              "threads": (1, 2, 4, 6, 8, 12), "duration_ns": 8_000_000},
        check=_check_fig3a,
        check_full=_check_full_fig3a,
    ),
    Experiment(
        name="fig3b",
        title="Figure 3b — NVMe hook throughput",
        func=fig3_throughput,
        quick={"hook": "nvme", "depths": (4,), "threads": (1, 6, 12),
               "duration_ns": 2_000_000},
        full={"hook": "nvme", "depths": (2, 6, 10),
              "threads": (1, 2, 4, 6, 8, 12), "duration_ns": 8_000_000},
        check=_check_fig3b,
        check_full=_check_full_fig3b,
    ),
    Experiment(
        name="fig3c",
        title="Figure 3c — single-thread latency",
        func=fig3c_latency,
        quick={"depths": (2, 6), "operations": 30},
        full={"depths": (1, 2, 3, 4, 6, 8, 10, 16), "operations": 100},
        check=_check_fig3c,
        check_full=_check_full_fig3c,
    ),
    Experiment(
        name="fig3d",
        title="Figure 3d — io_uring batch sweep",
        func=fig3d_iouring,
        quick={"depths": (4,), "batches": (1, 8), "duration_ns": 2_000_000},
        full={"depths": (3, 6, 10), "batches": (1, 2, 4, 8, 16, 32),
              "duration_ns": 8_000_000},
        check=_check_fig3d,
        check_full=_check_full_fig3d,
    ),
    Experiment(
        name="stability",
        title="§4 — extent stability under YCSB",
        func=extent_stability,
        quick={"sim_hours": 0.05, "ops_per_sec": 500,
               "rebuild_overlay": 3000, "gc_every_rebuilds": 3,
               "initial_keys": 3000},
        full={"sim_hours": 2.0, "ops_per_sec": 500,
              "rebuild_overlay": 32_000, "gc_every_rebuilds": 120,
              "initial_keys": 20_000},
        check=_check_stability,
        check_full=_check_full_stability,
    ),
    Experiment(
        name="hooks",
        title="Ablation — dispatch path at depth 6",
        func=fig3c_latency,
        quick={"depths": (6,), "operations": 30},
        full={"depths": (6,), "operations": 200},
        check=_check_hooks,
    ),
    Experiment(
        name="bound",
        title="Ablation — resubmission bound",
        func=ablation_resubmit_bound,
        quick={"chain_length": 8, "bounds": (2, 8), "lookups": 10},
        full={"chain_length": 24, "bounds": (2, 4, 8, 16, 64),
              "lookups": 50},
        check=_check_bound,
        check_full=_check_full_bound,
    ),
    Experiment(
        name="churn",
        title="Ablation — extent churn",
        func=ablation_invalidation_rate,
        quick={"intervals_us": (None, 500), "duration_ns": 2_000_000},
        full={"intervals_us": (None, 5000, 1000, 200),
              "duration_ns": 8_000_000},
        check=_check_churn,
        check_full=_check_full_churn,
    ),
    Experiment(
        name="vmmode",
        title="Ablation — interp vs block",
        func=ablation_vm_mode,
        quick={"depth": 3, "operations": 30},
        full={"depth": 6, "operations": 200},
        check=_check_vmmode,
    ),
    Experiment(
        name="appcache",
        title="Ablation — app-level index cache",
        func=ablation_app_cache,
        quick={"depth": 4, "cached_levels": (0, 2), "operations": 30},
        full={"depth": 6, "cached_levels": (0, 1, 2, 3, 5),
              "operations": 150},
        check=_check_appcache,
        check_full=_check_full_appcache,
    ),
    Experiment(
        name="lsmget",
        title="LSM point gets — BPF chains vs application traversal",
        func=lsm_get,
        quick={"num_keys": 8_000, "reads": 60},
        full={"num_keys": 30_000, "reads": 400},
        check=_check_lsmget,
    ),
    Experiment(
        name="interference",
        title="§4 fairness — chains vs plain readers",
        func=interference,
        quick={"chain_threads": 6, "duration_ns": 2_000_000},
        full={"chain_threads": 12, "duration_ns": 8_000_000},
        check=_check_interference,
        check_full=_check_full_interference,
    ),
    Experiment(
        name="resilience",
        title="Fault plan — availability and p99 of chained reads",
        func=fault_resilience,
        quick={"rates": (0.0, 0.01), "duration_ns": 1_500_000},
        full={"rates": (0.0, 0.001, 0.01, 0.05), "duration_ns": 4_000_000},
        check=_check_resilience,
    ),
    Experiment(
        name="crash",
        title="Crash consistency — enumerated power cuts, recovery, fsck",
        func=crash_consistency,
        quick={"modes": ("flush", "op-torn")},
        full={"modes": ("flush", "op", "op-torn", "sync")},
        check=_check_crash,
    ),
    Experiment(
        name="recovery",
        title="Crash recovery — fsync cost and replay vs checkpoint cadence",
        func=crash_recovery_sweep,
        quick={"files": 24, "fsync_every": 3, "write_kib": 4},
        full={"files": 120, "fsync_every": 3, "write_kib": 8},
        check=_check_recovery,
    ),
    Experiment(
        name="scale",
        title="Multi-queue NVMe — IOPS vs SQ/CQ pairs (IRQ steering)",
        func=mq_scaling,
        quick={"queue_pairs": (1, 2, 4), "threads": (24,),
               "duration_ns": 1_000_000},
        full={"queue_pairs": (1, 2, 4, 8), "threads": (24, 32),
              "duration_ns": 2_000_000},
        check=_check_scale,
    ),
    Experiment(
        name="pushdown",
        title="BPF-oF — naive vs pushdown GETs over the network",
        func=net_pushdown,
        quick={"depths": (2, 4), "rtts_us": (10, 20), "gets": 10},
        full={"depths": (1, 2, 3, 4, 5, 6), "rtts_us": (5, 10, 20, 50),
              "gets": 30},
        check=_check_pushdown,
    ),
    Experiment(
        name="cluster",
        title="Sharded cluster — YCSB scaling + crash failover",
        func=cluster_failover,
        quick={"shard_counts": (1, 2, 4), "ops": 80, "initial_keys": 32},
        full={"shard_counts": (1, 2, 4, 8), "ops": 160, "initial_keys": 48},
        check=_check_cluster,
    ),
    Experiment(
        name="tenants",
        title="Multi-tenant QoS — victim p99 vs an aggressor tenant",
        func=tenants,
        quick={"duration_ns": 2_000_000},
        full={"duration_ns": 8_000_000},
        check=_check_tenants,
    ),
    Experiment(
        name="compaction",
        title="LSM compaction — user vs offloaded vs remote bytes",
        func=compaction,
        quick={"runs": 3, "keys_per_run": 200, "tombstones_per_run": 20},
        full={"runs": 4, "keys_per_run": 600, "tombstones_per_run": 40},
        check=_check_compaction,
    ),
)

BY_NAME: Dict[str, Experiment] = {exp.name: exp for exp in EXPERIMENTS}
