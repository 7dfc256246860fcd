"""Regenerate the measured tables embedded in EXPERIMENTS.md.

Runs every experiment at the same scale as the benchmarks and prints a
markdown report to stdout:

    python scripts/generate_experiments_report.py > /tmp/report.md

With ``--json`` each experiment is emitted as a JSON document instead
(the same serialisation as ``python -m repro experiment <name> --json``),
for scripted consumers that would otherwise scrape the tables.
"""

import argparse
import sys

from repro.bench import (
    ablation_app_cache,
    ablation_invalidation_rate,
    ablation_resubmit_bound,
    ablation_vm_mode,
    extent_stability,
    fault_resilience,
    fig1_latency_breakdown,
    fig3_throughput,
    fig3c_latency,
    fig3d_iouring,
    interference,
    mq_scaling,
    net_pushdown,
    rows_to_json,
    table1_breakdown,
)

#: Set by main() from --json; switches emit() to JSON documents.
JSON_MODE = False


def emit(title, columns, rows):
    if JSON_MODE:
        print(rows_to_json(title, rows))
        print()
    else:
        emit_markdown(title, columns, rows)


def emit_markdown(title, columns, rows):
    print(f"### {title}\n")
    print("| " + " | ".join(columns) + " |")
    print("|" + "---|" * len(columns))
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:,.2f}")
            else:
                cells.append(str(value))
        print("| " + " | ".join(cells) + " |")
    print()


def main():
    global JSON_MODE
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", action="store_true",
                        help="emit JSON documents instead of markdown")
    JSON_MODE = parser.parse_args().json

    if not JSON_MODE:
        print("<!-- generated by scripts/generate_experiments_report.py -->\n")

    rows = fig1_latency_breakdown(reads=300)
    emit("Figure 1 — kernel overhead per device generation",
         ["device", "total_us", "device_us", "software_us",
          "software_pct"], rows)
    sys.stdout.flush()

    rows = table1_breakdown(reads=300)
    emit("Table 1 — 512 B read() latency breakdown (NVM-2)",
         ["layer", "measured_ns", "paper_ns", "measured_pct"], rows)
    sys.stdout.flush()

    rows = fig3_throughput("syscall", depths=(2, 6, 10),
                           threads=(1, 2, 4, 6, 8, 12),
                           duration_ns=8_000_000)
    emit("Figure 3a — syscall-dispatch hook throughput",
         ["depth", "threads", "baseline_klookups",
          "syscall_klookups", "speedup"], rows)
    sys.stdout.flush()

    rows = fig3_throughput("nvme", depths=(2, 6, 10),
                           threads=(1, 2, 4, 6, 8, 12),
                           duration_ns=8_000_000)
    emit("Figure 3b — NVMe-driver hook throughput",
         ["depth", "threads", "baseline_klookups", "nvme_klookups",
          "speedup"], rows)
    sys.stdout.flush()

    rows = fig3c_latency(depths=(1, 2, 3, 4, 6, 8, 10, 16), operations=100)
    emit("Figure 3c — single-thread lookup latency",
         ["depth", "baseline_us", "syscall_us", "nvme_us",
          "nvme_reduction_pct"], rows)
    sys.stdout.flush()

    rows = fig3d_iouring(depths=(3, 6, 10), batches=(1, 2, 4, 8, 16, 32),
                         duration_ns=8_000_000)
    emit("Figure 3d — io_uring + NVMe hook",
         ["depth", "batch", "baseline_klookups", "bpf_klookups",
          "speedup"], rows)
    sys.stdout.flush()

    rows = extent_stability(sim_hours=2.0, ops_per_sec=500)
    emit("§4 — extent stability under YCSB (40R/40U/20I zipf 0.7)",
         ["sim_hours", "operations", "extent_changes",
          "unmap_changes", "mean_change_interval_s",
          "changes_per_24h", "unmaps_per_24h", "invalidations"],
         rows)
    sys.stdout.flush()

    rows = fig3c_latency(depths=(6,), operations=200)
    emit("Ablation — dispatch paths at depth 6",
         ["depth", "baseline_us", "syscall_us", "nvme_us",
          "nvme_reduction_pct"], rows)

    rows = ablation_resubmit_bound(chain_length=24,
                                   bounds=(2, 4, 8, 16, 64), lookups=50)
    emit("Ablation — chained-resubmission bound",
         ["bound", "chain_length", "kills_per_lookup",
          "mean_latency_us"], rows)
    sys.stdout.flush()

    rows = ablation_invalidation_rate(intervals_us=(None, 5000, 1000, 200),
                                      depth=4, duration_ns=8_000_000)
    emit("Ablation — extent churn",
         ["churn_interval_us", "klookups_per_s", "mean_latency_us",
          "invalidations", "refresh_ioctls"], rows)

    rows = ablation_vm_mode(depth=6, operations=200)
    emit("Ablation — interp vs block",
         ["mode", "depth", "mean_latency_us",
          "speedup_vs_baseline"], rows)
    sys.stdout.flush()

    rows = ablation_app_cache(depth=6, cached_levels=(0, 1, 2, 3, 5),
                              operations=150)
    emit("Ablation — app-level cache of top index levels",
         ["cached_levels", "device_reads_per_lookup",
          "mean_latency_us"], rows)

    rows = interference(duration_ns=8_000_000)
    emit("§4 fairness — chains vs plain readers",
         ["scenario", "plain_kreads_per_s",
          "plain_mean_latency_us", "chained_resubmissions",
          "chain_processes_accounted"], rows)
    sys.stdout.flush()

    rows = fault_resilience()
    emit("Fault resilience — chained lookups under an injected plan",
         ["fault_rate", "klookups_per_s", "p99_latency_us",
          "availability_pct", "injected", "retries", "timeouts",
          "fallbacks", "surfaced_errors"], rows)
    sys.stdout.flush()

    rows = mq_scaling()
    emit("Multi-queue NVMe — IOPS vs SQ/CQ pairs (IRQ steering)",
         ["threads", "queue_pairs", "klookups", "kiops",
          "speedup_vs_1q", "busiest_q_pct"], rows)
    sys.stdout.flush()

    rows = net_pushdown()
    emit("BPF-oF — naive vs pushdown GETs over the network",
         ["depth", "rtt_us", "naive_us", "pushdown_us", "speedup",
          "naive_rpcs_per_get", "pushdown_rpcs_per_get"], rows)


if __name__ == "__main__":
    main()
