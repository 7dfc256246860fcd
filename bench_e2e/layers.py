"""Per-layer counters read off a world's public attributes.

Everything here is simulated state, so it is exact: two reps of one
seed must produce the same dictionary (the harness asserts it).  A
:func:`snapshot` is taken after the build and another after the run;
:func:`counters` turns the difference into metric values.  Metrics that
need the span trace (host times, VM instruction counts, fabric bytes)
are added by the harness from the traced rep.
"""

from __future__ import annotations

from typing import Any, Dict, List

from bench_e2e.workloads.common import Rep, World

__all__ = ["watch_unmaps", "snapshot", "counters", "device_busy_pct"]


def watch_unmaps(world: World) -> None:
    """Count extent unmap notifications through the file system's public
    listener list (the hook the NVMe-layer extent cache itself uses)."""
    world.state["unmaps"] = unmaps = [0]

    def listener(_inode, kind: str) -> None:
        if kind == "unmap":
            unmaps[0] += 1

    for kernel in world.kernels:
        kernel.fs.extent_change_listeners.append(listener)


def _kernel_row(kernel) -> Dict[str, Any]:
    device = kernel.device
    journal = kernel.fs.journal
    cache = device.write_cache
    return {
        "syscalls": kernel.syscall_count,
        "irqs": kernel.irq_count,
        "fsyncs": kernel.fsyncs,
        "cpu_busy_ns": kernel.cpus.busy_time(),
        "cores": kernel.cpus.cores,
        "nvme_cmds": device.completed,
        "queue_completed": list(device.queue_completed),
        "flushes": device.flushes,
        "media_reads": kernel.media.reads,
        "media_writes": kernel.media.writes,
        "evictions": cache.evictions if cache is not None else 0,
        "journal_txns": journal.txns_committed if journal else 0,
        "journal_bytes": journal.bytes_written if journal else 0,
        "journal_checkpoints": journal.checkpoints if journal else 0,
        "faults": (device.media_errors + device.timeouts
                   + kernel.nvme_retries + kernel.nvme_timeouts
                   + device.power_cycles),
        "fault_plan": kernel.fault_plan is not None,
    }


def _bpf_row(bpf) -> Dict[str, int]:
    engine = bpf.engine
    return {
        "chains_started": engine.chains_started,
        "chains_completed": engine.chains_completed,
        "split_fallbacks": engine.split_fallbacks,
        "extent_aborts": engine.extent_aborts,
        "fault_fallbacks": engine.fault_fallbacks,
        "resubmissions": sum(bpf.accounting.totals.values()),
        "refreshes": bpf.cache.refreshes,
        "invalidations": bpf.cache.invalidations,
    }


def snapshot(world: World) -> Dict[str, Any]:
    snap: Dict[str, Any] = {
        "now": world.sim.now,
        "kernels": [_kernel_row(kernel) for kernel in world.kernels],
        "bpfs": [_bpf_row(bpf) for bpf in world.bpfs],
        "unmaps": world.state["unmaps"][0],
    }
    qos = [kernel.qos for kernel in world.kernels if kernel.qos is not None]
    if qos:
        snap["qos"] = {
            "admit_rejects": sum(sum(q.admit_rejected.values())
                                 for q in qos),
            "chain_throttles": sum(sum(q.chain_throttles.values())
                                   for q in qos),
            "throttle_ns": sum(sum(q.chain_throttle_ns.values())
                               for q in qos),
        }
    cluster = world.cluster
    if cluster is not None:
        snap["cluster"] = {
            "puts": sum(cluster.shard_puts.values()),
            "replicated": sum(cluster.shard_replicated.values()),
            "lag_max": max(cluster.replica_lag(shard)
                           for shard in range(cluster.num_shards)),
            "handled": [target.handled_rpcs for target in cluster.targets],
        }
    return snap


def _delta(after: List[Dict], before: List[Dict], key: str) -> List[int]:
    return [a[key] - b[key] for a, b in zip(after, before)]


def counters(before: Dict[str, Any], after: Dict[str, Any],
             rep: Rep) -> Dict[str, float]:
    """Exact per-layer metric values for one rep."""
    ops = max(1, rep.ops)
    k_after, k_before = after["kernels"], before["kernels"]

    def total(key: str) -> int:
        return sum(_delta(k_after, k_before, key))

    queue_completed = [
        sum(a["queue_completed"][q] - b["queue_completed"][q]
            for a, b in zip(k_after, k_before)
            if q < len(a["queue_completed"]))
        for q in range(max(len(a["queue_completed"]) for a in k_after))]
    cpu_busy = max(
        100.0 * (a["cpu_busy_ns"] - b["cpu_busy_ns"])
        / (a["cores"] * max(1, after["now"] - before["now"]))
        for a, b in zip(k_after, k_before))
    out: Dict[str, float] = {
        "device.nvme_cmds_per_op": total("nvme_cmds") / ops,
        "device.qpair_busiest_pct":
            100.0 * max(queue_completed) / max(1, sum(queue_completed)),
        "device.flushes": total("flushes"),
        "device.media_reads": total("media_reads"),
        "device.media_writes": total("media_writes"),
        "device.writecache_evictions": total("evictions"),
        "kernel.syscalls_per_op": total("syscalls") / ops,
        "kernel.irqs_per_op": total("irqs") / ops,
        "kernel.cpu_busy_pct": cpu_busy,
        "kernel.fsyncs": total("fsyncs"),
        "kernel.journal_txns": total("journal_txns"),
        "kernel.journal_bytes_per_write":
            total("journal_bytes") / max(1, rep.writes),
        "kernel.journal_checkpoints": total("journal_checkpoints"),
        "kernel.extent_unmaps": after["unmaps"] - before["unmaps"],
        "faults.injected": total("faults") + sum(
            1 for row in k_after if row["fault_plan"]),
    }

    b_after, b_before = after["bpfs"], before["bpfs"]

    def bpf_total(key: str) -> int:
        return sum(_delta(b_after, b_before, key))

    started = bpf_total("chains_started")
    resubmissions = bpf_total("resubmissions")
    out.update({
        "core.chains_started": started,
        "core.chains_ok_pct":
            100.0 * bpf_total("chains_completed") / started
            if started else 0.0,
        "core.hops_per_chain":
            (started + resubmissions) / started if started else 0.0,
        "core.resubmissions": resubmissions,
        "core.split_fallbacks": bpf_total("split_fallbacks"),
        "core.extent_aborts": bpf_total("extent_aborts"),
        "core.fault_fallbacks": bpf_total("fault_fallbacks"),
        "core.extent_cache_refreshes": bpf_total("refreshes"),
        "core.extent_cache_invalidations": bpf_total("invalidations"),
    })

    if "qos" in after:
        q_after, q_before = after["qos"], before["qos"]
        out.update({
            "qos.admit_rejects":
                q_after["admit_rejects"] - q_before["admit_rejects"],
            "qos.chain_throttles":
                q_after["chain_throttles"] - q_before["chain_throttles"],
            "qos.throttle_sim_us":
                (q_after["throttle_ns"] - q_before["throttle_ns"]) / 1000,
        })

    if "cluster" in after:
        c_after, c_before = after["cluster"], before["cluster"]
        puts = c_after["puts"] - c_before["puts"]
        handled = [a - b for a, b in zip(c_after["handled"],
                                         c_before["handled"])]
        out.update({
            "cluster.replicated_per_put":
                (c_after["replicated"] - c_before["replicated"])
                / puts if puts else 0.0,
            "cluster.replica_lag_max": c_after["lag_max"],
            "cluster.shard_busiest_pct":
                100.0 * max(handled) / max(1, sum(handled)),
        })

    return out


def device_busy_pct(submitted: Dict[Any, Dict[str, int]],
                    sim_ns: int) -> float:
    """Service-slot occupancy of the busiest device, from the commands
    (device -> opcode -> count) the traced rep saw submitted: the sum of
    nominal service times over slots x duration.  Exact for the
    jitter-free ``NVM2_BENCH``; under ``NVM_GEN2`` the 2 % jitter
    averages out."""
    busiest = 0.0
    for device, opcodes in submitted.items():
        model = device.model
        service = {"read": model.read_ns, "write": model.write_ns,
                   "flush": model.flush_ns or 2 * model.write_ns}
        busy = sum(count * service[opcode]
                   for opcode, count in opcodes.items())
        busiest = max(busiest,
                      100.0 * busy / (model.parallelism * max(1, sim_ns)))
    return busiest
