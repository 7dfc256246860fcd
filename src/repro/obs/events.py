"""Typed tracepoint events for the simulated storage stack.

Every layer of the stack publishes :class:`TraceEvent` records onto a
:class:`~repro.obs.bus.TraceBus`.  Each event is stamped with *simulated*
time (never wall-clock), so traces are a deterministic function of the
workload and seed.

Event catalogue (all fields are plain JSON-serialisable values):

========================  =====================================================
event type                emitted by / meaning
========================  =====================================================
``syscall_enter``         syscall dispatch layer: one boundary crossing.
                          Fields: ``op`` (pread/open/ioctl/io_uring_enter/
                          reissue/...), ``pid``,
                          ``crossing_ns``, ``syscall_ns``, ``path``, ``span``.
``fs_resolve``            ext4 extent resolution (``ExtFs.map_range``):
                          ``ino``, ``offset``, ``length``, ``segments``,
                          ``cpu_ns``, ``span``, ``path``.
``bio_submit``            block layer handed a request; ``cpu_ns``,
                          ``segments``, ``span``, ``path``.
``bio_split``             a request crossed discontiguous extents and the
                          BIO layer split it; ``segments``, ``span``.
``nvme_submit``           a command was posted to the device submission
                          queue; ``opcode``, ``lba``, ``sectors``,
                          ``source``, ``driver_ns``, ``queue_depth``,
                          ``queue`` (owning SQ/CQ pair); ``rejected``
                          when a powered-off device refused it.
``nvme_complete``         device finished servicing a command;
                          ``service_ns`` (media time, excludes queueing),
                          ``queue_ns`` (time spent queued), ``status``,
                          ``queue`` (owning SQ/CQ pair).
``irq_entry``             completion interrupt entry; ``cpu_ns``.
``context_switch``        a blocked thread was woken; ``cpu_ns``.
``app_process``           application-side per-lookup processing;
                          ``cpu_ns``.
``bpf_hook_dispatch``     a storage BPF program ran at a hook;
                          ``hook`` ("nvme"/"syscall"/"user"), ``cpu_ns``,
                          ``instructions``, ``action``.
``chain_hop``             one completed hop of a resubmission chain;
                          ``hop``, ``offset``, ``span``, ``parent``.
``chain_kill``            the per-process fairness bound killed a chain;
                          ``pid``, ``hops``.
``chain_complete``        a chain delivered its result; ``hops``,
                          ``status``, ``pid``.
``extent_cache_install``  the install/refresh ioctl snapshotted extents;
                          ``ino``, ``extents``, ``epoch``.
``extent_cache_hit``      a chained resubmission translated through the
                          NVMe-layer snapshot; ``ino``, ``offset``.
``extent_cache_miss``     translation fell outside the snapshot (EEXTENT).
``extent_cache_split``    translation crossed discontiguous extents.
``extent_cache_invalidate``  an unmap invalidated a snapshot; ``ino``.
``extent_change``         the file system grew/unmapped extents;
                          ``ino``, ``kind``.
``resubmit_drain``        per-pid chained-resubmission counters drained to
                          the BIO layer; ``pids`` (pid -> count),
                          ``total``.
``fault_inject``          the fault plan fired on a command or a frame;
                          ``kind`` ("transient"/"timeout"/"spike"/
                          "net_drop"/"net_delay"), plus ``opcode``/
                          ``lba``/``sectors`` for media faults or
                          ``link``/``request_id`` for network faults.
``nvme_timeout``          the controller watchdog expired a command;
                          ``opcode``, ``lba``, ``timeout_ns``.
``nvme_retry``            the driver (or chain engine) resubmitted a
                          failed command; ``reason`` ("media"/
                          "timeout"), ``attempt``, ``backoff_ns``,
                          ``lba``; emitted when the backoff sleep starts.
``chain_fallback``        a faulted chain hop exhausted its retries, or
                          a split read lost a segment, and the chain was
                          handed back to user space; ``pid``, ``hops``,
                          ``offset``, ``reason`` ("media"/"timeout"/
                          "split").
``span_start``            a span opened; ``span``, ``parent``, ``name``.
``span_end``              a span closed; ``span`` plus result attributes.
``nvme_flush``            the device drained its volatile write cache;
                          ``records`` (destaged cache records).
``power_loss``            the simulated power cut: ``dropped`` (volatile
                          records lost), ``torn_sectors``/``torn_lba``
                          (partial persistence of one in-flight write),
                          ``flushes`` (completed flushes at the cut).
``blockdev_discard``      media TRIM (journal checkpoint, punch_range);
                          ``lba``, ``sectors``.
``journal_begin``         a journal commit charged its ext4 CPU; ``cpu_ns``,
                          ``txns`` (pending), ``span``, ``path``.
``journal_commit``        metadata txns became durable; ``txns``,
                          ``frames``, ``bytes``, ``seq`` (last committed).
``journal_replay``        recovery scanned the journal; ``replayed``,
                          ``discarded`` (torn/uncommitted txns), ``seq``.
``journal_checkpoint``    metadata serialised + journal truncated;
                          ``seq``, ``bytes``, ``trimmed_sectors``.
``fsck_report``           the invariant checker ran; ``checks``,
                          ``violations``.
``net_rpc_send``          a frame entered the network fabric; ``op``,
                          ``request_id``, ``bytes``, ``side``
                          ("client"/"target"), ``attempt``, ``inflight``
                          (client RPCs awaiting replies at emit time).
``net_rpc_recv``          a frame was delivered to an endpoint; ``op``,
                          ``request_id``, ``bytes``, ``side``, ``dup``
                          (the target saw this request id before and
                          re-sent the cached reply).
``net_retry``             a client RPC timed out and was retransmitted
                          with the same request id; ``op``,
                          ``request_id``, ``attempt``, ``backoff_ns``.
``cluster_replicate``     a shard primary's PUT was acknowledged by its
                          replica (or skipped, replica down); ``shard``,
                          ``key``, ``version``, ``lag`` (acked writes
                          the replica has not applied).
``cluster_failover``      a target crash was detected via RPC timeout
                          and its shards promoted their replicas;
                          ``target`` (crashed), ``shards`` (promoted
                          shard ids), ``op``/``attempts`` (from the
                          detecting ``RpcTimeout``).
``cluster_rejoin``        a crashed target replayed its journal, passed
                          fsck, caught up missed records, and rejoined
                          as replica; ``target``, ``replayed_txns``,
                          ``discarded_txns``, ``fsck_ok``,
                          ``caught_up``.
``qos_admit_reject``      admission control refused a tenant's op with
                          typed EAGAIN backpressure; ``tenant``,
                          ``cost``, ``retry_after_ns``, ``rejected``
                          (cumulative refusals for this tenant).
``qos_throttle``          the chain engine paced a tenant's resubmission
                          to stay within rate; ``tenant``, ``delay_ns``,
                          ``throttles`` (cumulative), ``span``; emitted
                          when the delay starts.
``qos_tenant_depth``      a command entered a WFQ submission queue;
                          ``tenant`` ("_system" for kernel-internal
                          I/O), ``queue``, ``depth`` (the tenant's
                          queued commands after the enqueue).
``compact_start``         the compaction engine began executing a plan;
                          ``mode`` ("user"/"offloaded"), ``tables``,
                          ``drop_tombstones``, ``pid``.
``compact_complete``      a compaction finished; ``mode``, ``emitted``,
                          ``dropped``, ``output_entries``,
                          ``user_bytes`` (crossed the syscall
                          boundary), ``kernel_bytes`` (stayed below
                          it), ``chain_hops``, ``pid``.
========================  =====================================================
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "APP_PROCESS",
    "BIO_SPLIT",
    "BIO_SUBMIT",
    "BLOCKDEV_DISCARD",
    "BPF_HOOK_DISPATCH",
    "CHAIN_COMPLETE",
    "CHAIN_FALLBACK",
    "CHAIN_HOP",
    "CHAIN_KILL",
    "CLUSTER_FAILOVER",
    "CLUSTER_REJOIN",
    "CLUSTER_REPLICATE",
    "COMPACT_COMPLETE",
    "COMPACT_START",
    "CONTEXT_SWITCH",
    "EXTENT_CACHE_HIT",
    "EXTENT_CACHE_INSTALL",
    "EXTENT_CACHE_INVALIDATE",
    "EXTENT_CACHE_MISS",
    "EXTENT_CACHE_SPLIT",
    "EXTENT_CHANGE",
    "FAULT_INJECT",
    "FSCK_REPORT",
    "FS_RESOLVE",
    "IRQ_ENTRY",
    "JOURNAL_BEGIN",
    "JOURNAL_CHECKPOINT",
    "JOURNAL_COMMIT",
    "JOURNAL_REPLAY",
    "NET_RETRY",
    "NET_RPC_RECV",
    "NET_RPC_SEND",
    "NVME_COMPLETE",
    "NVME_FLUSH",
    "NVME_RETRY",
    "NVME_SUBMIT",
    "NVME_TIMEOUT",
    "POWER_LOSS",
    "QOS_ADMIT_REJECT",
    "QOS_TENANT_DEPTH",
    "QOS_THROTTLE",
    "RESUBMIT_DRAIN",
    "SPAN_END",
    "SPAN_START",
    "SYSCALL_ENTER",
    "TraceEvent",
]

SYSCALL_ENTER = "syscall_enter"
FS_RESOLVE = "fs_resolve"
BIO_SUBMIT = "bio_submit"
BIO_SPLIT = "bio_split"
NVME_SUBMIT = "nvme_submit"
NVME_COMPLETE = "nvme_complete"
IRQ_ENTRY = "irq_entry"
CONTEXT_SWITCH = "context_switch"
APP_PROCESS = "app_process"
BPF_HOOK_DISPATCH = "bpf_hook_dispatch"
CHAIN_HOP = "chain_hop"
CHAIN_KILL = "chain_kill"
CHAIN_COMPLETE = "chain_complete"
EXTENT_CACHE_INSTALL = "extent_cache_install"
EXTENT_CACHE_HIT = "extent_cache_hit"
EXTENT_CACHE_MISS = "extent_cache_miss"
EXTENT_CACHE_SPLIT = "extent_cache_split"
EXTENT_CACHE_INVALIDATE = "extent_cache_invalidate"
EXTENT_CHANGE = "extent_change"
RESUBMIT_DRAIN = "resubmit_drain"
FAULT_INJECT = "fault_inject"
NVME_TIMEOUT = "nvme_timeout"
NVME_RETRY = "nvme_retry"
CHAIN_FALLBACK = "chain_fallback"
SPAN_START = "span_start"
SPAN_END = "span_end"
NVME_FLUSH = "nvme_flush"
POWER_LOSS = "power_loss"
BLOCKDEV_DISCARD = "blockdev_discard"
JOURNAL_BEGIN = "journal_begin"
JOURNAL_COMMIT = "journal_commit"
JOURNAL_REPLAY = "journal_replay"
JOURNAL_CHECKPOINT = "journal_checkpoint"
FSCK_REPORT = "fsck_report"
NET_RPC_SEND = "net_rpc_send"
NET_RPC_RECV = "net_rpc_recv"
NET_RETRY = "net_retry"
CLUSTER_REPLICATE = "cluster_replicate"
CLUSTER_FAILOVER = "cluster_failover"
CLUSTER_REJOIN = "cluster_rejoin"
QOS_ADMIT_REJECT = "qos_admit_reject"
QOS_THROTTLE = "qos_throttle"
QOS_TENANT_DEPTH = "qos_tenant_depth"
COMPACT_START = "compact_start"
COMPACT_COMPLETE = "compact_complete"


class TraceEvent:
    """One published tracepoint record.

    ``ts`` is simulated nanoseconds; ``etype`` is one of the module
    constants; ``fields`` holds the event-specific payload.
    """

    __slots__ = ("ts", "etype", "fields")

    def __init__(self, ts: int, etype: str, fields: Dict[str, Any]):
        self.ts = ts
        self.etype = etype
        self.fields = fields

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    def __repr__(self) -> str:
        return f"TraceEvent({self.etype} @{self.ts} {self.fields})"
