"""Standard bus subscribers: the stack-health metrics.

:func:`attach_standard_metrics` wires chain-depth histograms, extent-cache
hit ratios, per-pid resubmission fairness, kill counts and the fault,
crash, network, cluster and compaction counters into a
:class:`~repro.obs.metrics.MetricsRegistry`.  Per-layer time is the
ledger's (:class:`~repro.obs.spans.SpanCollector`).
"""

from __future__ import annotations

from typing import Dict

from repro.obs import events as ev
from repro.obs.bus import TraceBus
from repro.obs.events import TraceEvent
from repro.obs.metrics import MetricsRegistry

__all__ = ["attach_standard_metrics"]


def attach_standard_metrics(bus: TraceBus, registry: MetricsRegistry) -> None:
    """Subscribe the standard stack-health metrics to ``bus``.

    Populates: ``syscalls_total`` (by op), ``chain_hops_total``,
    ``chain_kills_total`` (by pid), ``chain_depth`` histogram,
    ``extent_cache_lookups_total`` (by outcome),
    ``extent_cache_invalidations_total``, ``resubmissions_total``
    (by pid, the fairness drain), ``nvme_commands_total`` (by source),
    ``nvme_service_time_ns`` histogram (device service time per
    completed command, p50/p95/p99 from the recorder),
    ``nvme_queue_depth`` gauge (last observed),
    ``nvme_qpair_commands_total`` (completions by queue pair),
    ``nvme_qpair_depth`` gauge (in-flight per queue pair, tracked from
    the ``queue`` field on submit/complete), and the fault-path
    counters: ``faults_injected_total`` (by kind),
    ``nvme_timeouts_total``, ``nvme_retries_total`` (by reason), and
    ``chain_fallbacks_total`` (by reason).

    Crash-consistency metrics: ``blockdev_sectors_total`` (by op —
    read/write/discard, derived from completions so hot paths emit no new
    events), ``nvme_flushes_total``, ``power_losses_total``,
    ``volatile_writes_dropped_total``, ``journal_commits_total``,
    ``journal_txns_total`` (by outcome: committed/replayed/discarded),
    ``journal_checkpoints_total``, ``fsck_runs_total``, and
    ``fsck_violations_total``.

    Network metrics (from the ``net_*`` tracepoints): ``net_rpcs_total``
    (client-issued RPC frames by op, retransmissions included),
    ``net_bytes_total`` (fabric bytes by direction — ``c2s`` for
    client-sent frames, ``s2c`` for target-sent replies),
    ``net_inflight`` gauge (client RPCs awaiting replies, carried on the
    send/recv events so the subscriber never guesses), and
    ``net_retries_total`` (timed-out RPCs retransmitted, by op).

    Cluster metrics (from the ``cluster_*`` tracepoints):
    ``cluster_failovers_total`` (replica promotions by crashed target),
    ``cluster_rejoins_total`` (recovered targets re-admitted), and
    ``cluster_replica_lag`` gauge (per shard: acked writes the replica
    has not yet applied — 0 in steady state, grows while the primary
    serves solo after its replica died).

    Compaction metrics (from ``compact_complete``):
    ``compact_runs_total`` (by mode), ``compact_boundary_bytes_total``
    (by boundary — ``syscall`` crossed it, ``kernel`` stayed below —
    and mode), and ``compact_entries_total`` (by result —
    emitted/dropped — and mode).
    """
    syscalls = registry.counter("syscalls_total", "Syscall entries by op")
    hops = registry.counter("chain_hops_total", "Completed chain hops")
    kills = registry.counter("chain_kills_total", "Fairness chain kills by pid")
    depth = registry.histogram(
        "chain_depth", buckets=[1, 2, 4, 8, 16, 32, 64, 128],
        help="Hops per completed chain")
    cache = registry.counter("extent_cache_lookups_total",
                             "NVMe extent-cache translations by outcome")
    invalidations = registry.counter("extent_cache_invalidations_total",
                                     "Extent-cache snapshot invalidations")
    resub = registry.counter("resubmissions_total",
                             "Chained resubmissions drained to bio, by pid")
    nvme = registry.counter("nvme_commands_total", "NVMe submissions by source")
    service = registry.histogram(
        "nvme_service_time_ns",
        buckets=[500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000,
                 64_000, 128_000],
        help="Device service time per completed NVMe command")
    qdepth = registry.gauge("nvme_queue_depth", "Last observed queue depth")
    qpair_cmds = registry.counter("nvme_qpair_commands_total",
                                  "NVMe completions by queue pair")
    qpair_depth = registry.gauge("nvme_qpair_depth",
                                 "In-flight commands per queue pair")

    bus.subscribe(lambda e: syscalls.inc(op=e.get("op", "?")), ev.SYSCALL_ENTER)
    bus.subscribe(lambda e: hops.inc(), ev.CHAIN_HOP)
    bus.subscribe(lambda e: kills.inc(pid=e.get("pid", "?")), ev.CHAIN_KILL)
    bus.subscribe(lambda e: depth.observe(e.get("hops", 0)), ev.CHAIN_COMPLETE)
    bus.subscribe(lambda e: cache.inc(outcome="hit"), ev.EXTENT_CACHE_HIT)
    bus.subscribe(lambda e: cache.inc(outcome="miss"), ev.EXTENT_CACHE_MISS)
    bus.subscribe(lambda e: cache.inc(outcome="split"), ev.EXTENT_CACHE_SPLIT)
    bus.subscribe(lambda e: invalidations.inc(), ev.EXTENT_CACHE_INVALIDATE)

    def _on_drain(event: TraceEvent) -> None:
        for pid, count in sorted(event.get("pids", {}).items()):
            resub.inc(count, pid=pid)

    bus.subscribe(_on_drain, ev.RESUBMIT_DRAIN)

    # Per-queue-pair depth is tracked subscriber-side from the ``queue``
    # field on submit/complete, so the device emits no extra events.
    qpair_in_flight: Dict[int, int] = {}

    def _on_nvme_submit(event: TraceEvent) -> None:
        if event.get("rejected"):
            return  # a powered-off device refused it: never in flight
        nvme.inc(source=event.get("source", "bio"))
        qdepth.set(event.get("queue_depth", 0))
        queue = event.get("queue", 0)
        qpair_in_flight[queue] = qpair_in_flight.get(queue, 0) + 1
        qpair_depth.set(qpair_in_flight[queue], queue=queue)

    bus.subscribe(_on_nvme_submit, ev.NVME_SUBMIT)

    faults = registry.counter("faults_injected_total",
                              "Fault-plan injections by kind")
    timeouts = registry.counter("nvme_timeouts_total",
                                "Commands expired by the controller watchdog")
    retries = registry.counter("nvme_retries_total",
                               "Driver/chain command resubmissions by reason")
    fallbacks = registry.counter("chain_fallbacks_total",
                                 "Chains degraded to user space by reason")
    bus.subscribe(lambda e: faults.inc(kind=e.get("kind", "?")),
                  ev.FAULT_INJECT)
    bus.subscribe(lambda e: timeouts.inc(), ev.NVME_TIMEOUT)
    bus.subscribe(lambda e: retries.inc(reason=e.get("reason", "?")),
                  ev.NVME_RETRY)
    bus.subscribe(lambda e: fallbacks.inc(reason=e.get("reason", "?")),
                  ev.CHAIN_FALLBACK)

    # -- crash consistency ---------------------------------------------
    # blockdev_sectors_total is derived from existing completion/discard
    # events rather than emitted by the device read/write paths, so the
    # no-journal no-cache trace stream stays byte-identical to before.
    sectors = registry.counter("blockdev_sectors_total",
                               "Media sectors moved, by op")
    flushes = registry.counter("nvme_flushes_total",
                               "Completed NVMe FLUSH commands")
    power = registry.counter("power_losses_total",
                             "Simulated power cuts")
    dropped = registry.counter("volatile_writes_dropped_total",
                               "Cached writes lost to power cuts")
    commits = registry.counter("journal_commits_total",
                               "Journal commit batches")
    txns = registry.counter("journal_txns_total",
                            "Journal transactions by outcome")
    checkpoints = registry.counter("journal_checkpoints_total",
                                   "Checkpoints written")
    fsck_runs = registry.counter("fsck_runs_total", "fsck invocations")
    fsck_viol = registry.counter("fsck_violations_total",
                                 "fsck invariant violations")

    def _on_nvme_complete(event: TraceEvent) -> None:
        service_ns = event.get("service_ns", 0)
        if service_ns:
            service.observe(service_ns)
        if event.get("status", 0) == 0:
            count = event.get("sectors", 0)
            if count:
                sectors.inc(count, op=event.get("opcode", "?"))
        queue = event.get("queue", 0)
        qpair_cmds.inc(queue=queue)
        remaining = qpair_in_flight.get(queue, 0) - 1
        qpair_in_flight[queue] = max(remaining, 0)
        qpair_depth.set(qpair_in_flight[queue], queue=queue)

    bus.subscribe(_on_nvme_complete, ev.NVME_COMPLETE)
    bus.subscribe(lambda e: sectors.inc(e.get("sectors", 0), op="discard"),
                  ev.BLOCKDEV_DISCARD)
    bus.subscribe(lambda e: flushes.inc(), ev.NVME_FLUSH)

    def _on_power_loss(event: TraceEvent) -> None:
        power.inc()
        lost = event.get("dropped", 0)
        if lost:
            dropped.inc(lost)

    bus.subscribe(_on_power_loss, ev.POWER_LOSS)

    def _on_journal_commit(event: TraceEvent) -> None:
        commits.inc()
        txns.inc(event.get("txns", 0), outcome="committed")

    bus.subscribe(_on_journal_commit, ev.JOURNAL_COMMIT)

    def _on_journal_replay(event: TraceEvent) -> None:
        txns.inc(event.get("replayed", 0), outcome="replayed")
        discarded_txns = event.get("discarded", 0)
        if discarded_txns:
            txns.inc(discarded_txns, outcome="discarded")

    bus.subscribe(_on_journal_replay, ev.JOURNAL_REPLAY)
    bus.subscribe(lambda e: checkpoints.inc(), ev.JOURNAL_CHECKPOINT)

    def _on_fsck(event: TraceEvent) -> None:
        fsck_runs.inc()
        violations = event.get("violations", 0)
        if violations:
            fsck_viol.inc(violations)

    bus.subscribe(_on_fsck, ev.FSCK_REPORT)

    # -- network (repro.net) --------------------------------------------
    net_rpcs = registry.counter("net_rpcs_total",
                                "Client-issued RPC frames by op")
    net_bytes = registry.counter("net_bytes_total",
                                 "Fabric bytes moved, by direction")
    net_inflight = registry.gauge("net_inflight",
                                  "Client RPCs awaiting replies")
    net_retries = registry.counter("net_retries_total",
                                   "Timed-out RPCs retransmitted, by op")

    def _on_net_send(event: TraceEvent) -> None:
        side = event.get("side", "client")
        if side == "client":
            net_rpcs.inc(op=event.get("op", "?"))
            net_inflight.set(event.get("inflight", 0))
        net_bytes.inc(event.get("bytes", 0),
                      direction="c2s" if side == "client" else "s2c")

    def _on_net_recv(event: TraceEvent) -> None:
        if event.get("side", "client") == "client":
            net_inflight.set(event.get("inflight", 0))

    bus.subscribe(_on_net_send, ev.NET_RPC_SEND)
    bus.subscribe(_on_net_recv, ev.NET_RPC_RECV)
    bus.subscribe(lambda e: net_retries.inc(op=e.get("op", "?")),
                  ev.NET_RETRY)

    # -- cluster (repro.cluster) ----------------------------------------
    failovers = registry.counter("cluster_failovers_total",
                                 "Replica promotions by crashed target")
    rejoins = registry.counter("cluster_rejoins_total",
                               "Recovered targets re-admitted as replicas")
    replica_lag = registry.gauge("cluster_replica_lag",
                                 "Acked writes the replica has not applied")

    bus.subscribe(lambda e: failovers.inc(target=e.get("target", "?")),
                  ev.CLUSTER_FAILOVER)
    bus.subscribe(lambda e: rejoins.inc(), ev.CLUSTER_REJOIN)
    bus.subscribe(lambda e: replica_lag.set(e.get("lag", 0),
                                            shard=e.get("shard", 0)),
                  ev.CLUSTER_REPLICATE)

    # -- compaction (repro.compact) -------------------------------------
    compact_runs = registry.counter("compact_runs_total",
                                    "Compactions executed, by mode")
    compact_bytes = registry.counter(
        "compact_boundary_bytes_total",
        "Bytes moved per boundary during compaction")
    compact_entries = registry.counter(
        "compact_entries_total",
        "Entries streamed through compaction merges")

    def _on_compact(event: TraceEvent) -> None:
        mode = event.get("mode", "?")
        compact_runs.inc(mode=mode)
        compact_bytes.inc(event.get("user_bytes", 0), boundary="syscall",
                          mode=mode)
        compact_bytes.inc(event.get("kernel_bytes", 0), boundary="kernel",
                          mode=mode)
        compact_entries.inc(event.get("emitted", 0), result="emitted",
                            mode=mode)
        compact_entries.inc(event.get("dropped", 0), result="dropped",
                            mode=mode)

    bus.subscribe(_on_compact, ev.COMPACT_COMPLETE)
