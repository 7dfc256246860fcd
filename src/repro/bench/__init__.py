"""Benchmark harness: one experiment function per paper table/figure.

* :mod:`~repro.bench.tables` — fixed-width table rendering for results.
* :mod:`~repro.bench.runner` — the rig every experiment cell is built
  from: the B-tree bench machine, the shared clients, and the two
  timing loops (closed-loop populations, count-bounded single client).
* :mod:`~repro.bench.experiments` — the figure/table reproductions:
  ``fig1_latency_breakdown``, ``table1_breakdown``, ``fig3_throughput``
  (3a/3b), ``fig3c_latency``, ``fig3d_iouring``, ``extent_stability``
  (§4's YCSB measurement), ``fault_resilience`` (availability under an
  injected fault plan), ``crash_consistency`` (crash-point enumeration
  with recovery verification), ``mq_scaling`` (aggregate IOPS vs NVMe
  SQ/CQ pairs with per-core IRQ steering), ``net_pushdown`` (BPF-oF's
  naive vs pushdown remote GETs over the simulated network),
  ``cluster_failover`` (sharded/replicated cluster: YCSB scaling plus a
  mid-run target kill with failover and rejoin), ``compaction`` (LSM
  compaction boundary bytes: user-space vs chain-offloaded vs one-RPC
  remote offload), ``crash_recovery_sweep`` (fsync cost and replay vs
  checkpoint cadence), ``lsm_get`` (LSM point gets, chains vs
  application traversal), ``overhead_comparison`` (wall-clock cost of
  the bus, the profiler and idle fault hooks), and the ablations.
* :mod:`~repro.bench.registry` — the experiment table: one row per
  experiment (name, title, function, ``quick``/``full`` kwargs, shape
  checks) that the CLI, the report script, the goldens and CI all read.

Each experiment returns plain row dictionaries so the CLI,
``EXPERIMENTS.md``, and tests all consume the same data.
"""

from repro.bench.experiments import (
    ablation_app_cache,
    interference,
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
    lsm_get,
    mq_scaling,
    net_pushdown,
    overhead_comparison,
    table1_breakdown,
    tenants,
)
from repro.bench.runner import BtreeBench, run_closed_loop
from repro.bench.tables import format_table, rows_to_json

__all__ = [
    "BtreeBench",
    "ablation_app_cache",
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
    "format_table",
    "interference",
    "lsm_get",
    "mq_scaling",
    "net_pushdown",
    "overhead_comparison",
    "rows_to_json",
    "run_closed_loop",
    "table1_breakdown",
    "tenants",
]
