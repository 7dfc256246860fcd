"""The sharded, replicated storage cluster: targets, shards, failover.

A :class:`StorageCluster` is N :class:`ClusterTarget` s — each a full
:class:`~repro.net.target.StorageTarget` (its own kernel, journal,
write cache, NVMe device, and BPF chain engine) — on one shared
simulator and network fabric, behind a consistent-hash
:class:`~repro.cluster.ring.HashRing`.

**Placement.**  With N targets there are N shards; target ``t`` is the
primary of shard ``t`` and the replica of shard ``t-1`` (mod N), so a
single crash touches exactly two shards: one loses its primary (the
replica is promoted), one loses its replica (the primary serves solo
and the shard's replica lag grows until rejoin).

**Replication.**  A PUT executes on the primary, which stamps the
record with a per-key monotonic version, writes it locally, then
forwards it over an inter-target connection and waits for the
replica's ack *before* acking the client.  That ordering is the whole
consistency argument: every write the client ever saw acknowledged
exists on the replica, so promotion after a crash loses nothing and
the promoted primary's next version stamp (``versions[key] + 1``)
continues the acked sequence — read-your-writes survives failover.

**Crash / failover / rejoin.**  A :class:`~repro.faults.FaultSpec`
with ``target_crash_after_rpcs=k`` arms a power cut on one victim
after it has handled k RPCs; from then on the victim answers nothing
(a dead machine sends no RSTs).  The *client* detects this the only
way a distributed system can — :class:`~repro.errors.RpcTimeout` — and
reports it; the cluster promotes the affected replicas.  Rejoining the
victim replays its journal (:func:`~repro.kernel.recovery.reload_fs`),
audits the recovered file system with fsck, rebuilds the version table
from media (the in-memory table died with the power), discards every
stale per-client fd/chain, then catches up records it missed from the
new primary — forced REPLICATEs that also overwrite any never-acked
write the crash tore out of its write cache.

Records are one 512-byte sector each (magic, key, version, value,
zero padding), so a record write can never tear: the device's
volatile-cache teardown only splits multi-sector writes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.ring import HashRing
from repro.errors import InvalidArgument, RemoteError, RpcTimeout
from repro.faults import FaultPlan, FaultSpec
from repro.kernel import JournalConfig, KernelConfig
from repro.kernel.recovery import fsck
from repro.net import (
    NetConfig,
    NetworkFabric,
    RemoteClient,
    StorageTarget,
    wire,
)
from repro.obs import events as obs_events
from repro.qos import QosConfig
from repro.sim import Simulator
from repro.structures import BTree

__all__ = ["ClusterTarget", "DATA_PATH", "RECORD_SIZE", "RejoinReport",
           "StorageCluster", "decode_record", "encode_record"]

#: One record per 512 B sector: single-sector writes never tear.
RECORD_SIZE = 512
RECORD_MAGIC = 0xC10C_0001
_RECORD_HEADER = struct.Struct("!IQQQ")  # magic, key, version, value

#: Every target stores its records in this pre-allocated file.
DATA_PATH = "/shard"

#: Transport budget of a primary -> replica connection: retransmissions
#: of one replication RPC and the timeout of each.
_REPL_RETRIES = 2
_REPL_TIMEOUT_NS = 300_000


def encode_record(key: int, version: int, value: int) -> bytes:
    """One durable record, padded to exactly one sector."""
    header = _RECORD_HEADER.pack(RECORD_MAGIC, key, version, value)
    return header + bytes(RECORD_SIZE - len(header))


def decode_record(data: bytes) -> Optional[Tuple[int, int, int]]:
    """``(key, version, value)``, or None for an empty/foreign slot."""
    if len(data) < _RECORD_HEADER.size:
        return None
    magic, key, version, value = _RECORD_HEADER.unpack_from(data)
    if magic != RECORD_MAGIC or version == 0:
        return None
    return key, version, value


@dataclass(frozen=True)
class RejoinReport:
    """What bringing a crashed target back involved."""

    target: int
    replayed_txns: int
    discarded_txns: int
    fsck_ok: bool
    rebuilt_versions: int
    caught_up: int


class ClusterTarget(StorageTarget):
    """A storage target that is one member of a :class:`StorageCluster`.

    Adds handlers for the KV ops (PUT / GET / REPLICATE) beside the base
    target's, plus the crash flag: a
    crashed target silently drops every request — replies, refusals and
    all — because a machine without power does not send errors.
    """

    def __init__(self, sim: Simulator, model=None,
                 config: Optional[KernelConfig] = None,
                 target_id: int = 0, cluster: "StorageCluster" = None,
                 capacity_keys: int = 1024):
        super().__init__(sim, model, config)
        self.target_id = target_id
        self.cluster = cluster
        self.capacity_keys = capacity_keys
        self.data_path = DATA_PATH
        self.crashed = False
        self.handled_rpcs = 0
        #: Per-key monotonic version stamps (volatile: dies with power,
        #: rebuilt from media at rejoin).
        self.versions: Dict[int, int] = {}

    # -- request dispatch ---------------------------------------------

    def _handle(self, state, op: int, body: bytes):
        if self.crashed:
            return None
        self.handled_rpcs += 1
        if self.cluster is not None:
            self.cluster._before_rpc(self)
            if self.crashed:  # the fault plan just cut our power
                return None
        result = yield from super()._handle(state, op, body)
        if self.crashed:
            # Power died while this op was in flight: whatever refusal
            # or reply the handler produced, a dead machine sends nothing.
            return None
        return result

    # -- KV ops --------------------------------------------------------

    def _check_key(self, key: int) -> None:
        if not 0 <= key < self.capacity_keys:
            raise InvalidArgument(
                f"key {key} outside target capacity {self.capacity_keys}")

    def _op_put(self, state, key: int, value: int):
        self._check_key(key)
        version = self.versions.get(key, 0) + 1
        record = encode_record(key, version, value)
        fd = yield from self._fd_for(state, self.data_path)
        yield from self.kernel.sys_pwrite(state.proc, fd,
                                          key * RECORD_SIZE, record)
        self.versions[key] = version
        if self.cluster is not None:
            # Ack-after-replica: the client's reply is not sent until
            # the replica has the record (or is known dead).
            yield from self.cluster.replicate(self, key, version, record)
        return (version,)

    def _op_get(self, state, key: int):
        self._check_key(key)
        fd = yield from self._fd_for(state, self.data_path)
        result = yield from self.kernel.sys_pread(state.proc, fd,
                                                  key * RECORD_SIZE,
                                                  RECORD_SIZE)
        decoded = decode_record(result.data)
        if decoded is None or decoded[0] != key:
            return False, 0, 0
        _key, version, value = decoded
        return True, version, value

    def _op_replicate(self, state, key: int, version: int, offset: int,
                      data: bytes):
        self._check_key(key)
        fd = yield from self._fd_for(state, self.data_path)
        yield from self.kernel.sys_pwrite(state.proc, fd, offset, data)
        # The sender (primary, or the rejoin catch-up) is authoritative:
        # take its stamp unconditionally, even backwards — a catch-up
        # REPLICATE may overwrite a newer-but-never-acked crash leftover.
        if version > 0:
            self.versions[key] = version
        else:
            self.versions.pop(key, None)
        return (version,)

    # -- crash / rejoin plumbing --------------------------------------

    def rebuild_versions(self) -> int:
        """Re-derive the version table from media (post-recovery)."""
        self.versions.clear()
        inode = self.kernel.fs.lookup(self.data_path)
        for key in range(self.capacity_keys):
            decoded = decode_record(self.kernel.fs.read_sync(
                inode, key * RECORD_SIZE, RECORD_SIZE))
            if decoded is not None and decoded[0] == key:
                self.versions[key] = decoded[1]
        return len(self.versions)

    def reset_client_state(self) -> None:
        """Drop per-client fds and chain installs (stale after reload).

        Recovery rebuilds the file system in place, so every cached fd
        references a dead inode and every installed chain a dead fd.
        Clients re-open lazily; chains must be re-shipped and re-verified
        (:meth:`~repro.cluster.client.ClusterClient.reinstall_chains`).
        """
        for state in self._clients.values():
            state.fds.clear()
            state.chains.clear()
            # Accounting rows for the pre-crash incarnation are stale
            # too: without this, every crash/rejoin cycle leaked one
            # pending/total row per client process.
            self.accounting.forget(state.proc)


class StorageCluster:
    """N sharded, replicated :class:`ClusterTarget` s on one fabric."""

    def __init__(self, sim: Simulator, shards: int, model=None,
                 seed: int = 7, cores: int = 2, capacity_keys: int = 1024,
                 rtt_us: int = 10, cache_depth: int = 8,
                 journal_blocks: int = 64,
                 fault_spec: Optional[FaultSpec] = None,
                 crash_victim: int = 0,
                 qos: Optional[QosConfig] = None):
        if shards < 1:
            raise InvalidArgument("cluster needs at least one shard")
        self.sim = sim
        self.seed = seed
        self.num_shards = shards
        self.capacity_keys = capacity_keys
        self.fabric = NetworkFabric(
            sim, NetConfig(one_way_ns=rtt_us * 1000 // 2, seed=seed))
        self.bus = self.fabric.bus
        self.ring = HashRing(range(shards))
        self.targets: List[ClusterTarget] = []
        # One zero fill for every target's data file: the devices keep
        # views of it instead of a copy each.
        zeros = bytes(capacity_keys * RECORD_SIZE)
        for t in range(shards):
            config = KernelConfig(
                cores=cores, seed=seed + t, write_cache_depth=cache_depth,
                journal=JournalConfig(journal_blocks=journal_blocks),
                qos=qos)
            target = ClusterTarget(sim, model=model, config=config,
                                   target_id=t, cluster=self,
                                   capacity_keys=capacity_keys)
            target.create_file(DATA_PATH, zeros)
            # Make the untimed setup durable: without a checkpoint, a
            # crash would recover this target to an *empty* file system.
            target.kernel.fs.checkpoint_sync()
            self.targets.append(target)
        #: shard -> current primary / replica target id (replica is None
        #: for a single-target cluster: nothing to replicate to).
        self.primary: Dict[int, int] = {s: s for s in range(shards)}
        self.replica: Dict[int, Optional[int]] = {
            s: ((s + 1) % shards if shards > 1 else None)
            for s in range(shards)}
        #: Shards whose replica is currently unreachable (crashed).
        self._replica_down: Set[int] = set()
        self._repl_remotes: Dict[int, RemoteClient] = {}
        self._repl_conn_target: Dict[int, int] = {}
        self._repl_generation = 0
        self._ctl_remotes: Dict[int, RemoteClient] = {}
        for s in range(shards):
            if self.replica[s] is not None:
                self._make_repl_conn(s)
        #: The armed fault plan (only ``target_crash_after_rpcs`` is
        #: interpreted at cluster level; media/net fields belong to the
        #: per-kernel / fabric plans).
        self.plan = FaultPlan(fault_spec, kernel_seed=seed) \
            if fault_spec is not None else None
        self.crash_victim = crash_victim
        # -- bookkeeping ------------------------------------------------
        self.failovers = 0
        self.rejoins = 0
        self.crash_ts: Optional[int] = None
        self.affected_shards: Set[int] = set()
        self.shard_puts: Dict[int, int] = {}
        self.shard_replicated: Dict[int, int] = {}

    # -- topology ------------------------------------------------------

    def primary_for(self, key: int) -> int:
        return self.primary[self.ring.shard_for(key)]

    def replica_lag(self, shard: int) -> int:
        """Acked primary writes the replica has not applied."""
        return (self.shard_puts.get(shard, 0) -
                self.shard_replicated.get(shard, 0))

    def _make_repl_conn(self, shard: int) -> None:
        replica = self.replica[shard]
        # Replication is system traffic: never admission-controlled.
        self._repl_remotes[shard] = self.targets[replica].connect(
            self.fabric, f"repl-s{shard}-g{self._repl_generation}",
            tenant="", timeout_ns=_REPL_TIMEOUT_NS,
            max_retries=_REPL_RETRIES)
        self._repl_generation += 1
        self._repl_conn_target[shard] = replica

    def _ctl_remote(self, target_id: int) -> RemoteClient:
        """A cluster-owned control client for ``target_id`` (lazy)."""
        remote = self._ctl_remotes.get(target_id)
        if remote is None:
            target = self.targets[target_id]
            remote = self._ctl_remotes[target_id] = target.connect(
                self.fabric, f"ctl-t{target_id}", tenant="")
        return remote

    # -- replication (called from the primary's PUT handler) -----------

    def replicate(self, source: ClusterTarget, key: int, version: int,
                  record: bytes):
        """Forward one stamped record to the shard's replica (generator).

        A replica that stops answering is marked down — the primary
        keeps serving solo rather than stalling every PUT on a dead
        machine's retransmission budget.
        """
        shard = self.ring.shard_for(key)
        self.shard_puts[shard] = self.shard_puts.get(shard, 0) + 1
        remote = None
        if (self.primary.get(shard) == source.target_id
                and self.replica.get(shard) is not None
                and shard not in self._replica_down):
            remote = self._repl_remotes.get(shard)
        if remote is not None:
            try:
                yield from remote.rpc(wire.OP_REPLICATE, key, version,
                                      key * RECORD_SIZE, record)
                self.shard_replicated[shard] = \
                    self.shard_replicated.get(shard, 0) + 1
            except (RpcTimeout, RemoteError):
                self._replica_down.add(shard)
        if self.bus.enabled:
            self.bus.emit(obs_events.CLUSTER_REPLICATE, self.sim.now,
                          shard=shard, key=key, version=version,
                          lag=self.replica_lag(shard))

    # -- crash ---------------------------------------------------------

    def _before_rpc(self, target: ClusterTarget) -> None:
        """Fault hook: maybe cut the victim's power before this RPC."""
        if (self.plan is not None and target.target_id == self.crash_victim
                and self.plan.target_crash_due(target.handled_rpcs)):
            self.crash_target(target.target_id)

    def crash_target(self, target_id: int, tear: bool = False) -> None:
        """Cut one target's power: volatile cache gone, requests dark."""
        target = self.targets[target_id]
        if target.crashed:
            return
        target.crashed = True
        target.kernel.crash(tear=tear)
        self.crash_ts = self.sim.now
        self.affected_shards = {s for s, p in self.primary.items()
                                if p == target_id}
        for s, replica in self.replica.items():
            if replica == target_id:
                self._replica_down.add(s)

    def report_timeout(self, target_id: int,
                       cause: Optional[RpcTimeout] = None) -> List[int]:
        """A client's crash detector: promote the dead primary's shards.

        Returns the promoted shard ids ([] for a spurious timeout — a
        slow-but-alive target keeps its shards, the client just
        retries).  Promotion is safe because every *acked* version
        already lives on the replica; the promoted primary continues
        each key's version sequence from its own table.
        """
        target = self.targets[target_id]
        if not target.crashed:
            return []
        promoted = []
        for shard in sorted(self.primary):
            if (self.primary[shard] == target_id
                    and self.replica[shard] is not None):
                self.primary[shard] = self.replica[shard]
                self.replica[shard] = target_id
                self._replica_down.add(shard)
                promoted.append(shard)
        if promoted:
            self.failovers += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.CLUSTER_FAILOVER, self.sim.now,
                              target=target_id, shards=promoted,
                              op=cause.op if cause else "?",
                              attempts=cause.attempts if cause else 0)
        return promoted

    # -- rejoin --------------------------------------------------------

    def rejoin(self, target_id: int):
        """Bring a crashed target back as a replica (generator).

        Journal replay + fsck first (a target that cannot mount cleanly
        must not rejoin), then rebuild the version table from media,
        drop stale per-client state, and catch up: for every shard this
        target now backs, pull the authoritative record for each key
        from the current primary (a GET through the primary's kernel,
        so write-cache-resident records are included) and force-apply
        it.  Never-acked divergent leftovers are overwritten — correct,
        because no client was ever told they happened.
        """
        target = self.targets[target_id]
        if not target.crashed:
            raise InvalidArgument(f"target {target_id} is not crashed")
        report = target.kernel.recover()
        fsck_report = fsck(target.kernel.fs)
        rebuilt = target.rebuild_versions()
        target.reset_client_state()
        target.crashed = False
        caught_up = 0
        if fsck_report.ok:
            for shard in sorted(self.replica):
                if (self.replica[shard] != target_id
                        or self.primary[shard] == target_id):
                    continue
                caught_up += yield from self._catch_up(shard, target_id)
                self._replica_down.discard(shard)
                if self._repl_conn_target.get(shard) != target_id:
                    self._make_repl_conn(shard)
                # The replica is caught up to every acked write.
                self.shard_replicated[shard] = self.shard_puts.get(shard, 0)
        self.rejoins += 1
        if self.bus.enabled:
            self.bus.emit(obs_events.CLUSTER_REJOIN, self.sim.now,
                          target=target_id,
                          replayed_txns=report.replayed_txns,
                          discarded_txns=report.discarded_txns,
                          fsck_ok=fsck_report.ok, caught_up=caught_up)
        return RejoinReport(target=target_id,
                            replayed_txns=report.replayed_txns,
                            discarded_txns=report.discarded_txns,
                            fsck_ok=fsck_report.ok,
                            rebuilt_versions=rebuilt,
                            caught_up=caught_up)

    def _catch_up(self, shard: int, target_id: int):
        """Replay every record of ``shard`` from its primary (generator)."""
        primary = self.targets[self.primary[shard]]
        src = self._ctl_remote(primary.target_id)
        dst = self._ctl_remote(target_id)
        copied = 0
        for key in sorted(primary.versions):
            if self.ring.shard_for(key) != shard:
                continue
            found, version, value = yield from src.rpc(wire.OP_GET, key)
            if not found:
                continue
            yield from dst.rpc(wire.OP_REPLICATE, key, version,
                               key * RECORD_SIZE,
                               encode_record(key, version, value))
            copied += 1
        return copied

    # -- setup helpers -------------------------------------------------

    def preload(self, items: Sequence[Tuple[int, int]]) -> None:
        """Untimed bulk load: version-1 records on primary *and* replica.

        Setup-phase data, so it lands directly on media (no journal or
        write-cache traffic) — the steady state a long-running cluster
        would have reached anyway.
        """
        for key, value in items:
            shard = self.ring.shard_for(key)
            record = encode_record(key, 1, value)
            for target_id in (self.primary[shard], self.replica[shard]):
                if target_id is None:
                    continue
                target = self.targets[target_id]
                target._check_key(key)
                inode = target.kernel.fs.lookup(DATA_PATH)
                target.kernel.fs.write_sync(inode, key * RECORD_SIZE,
                                            record)
                target.versions[key] = 1

    def build_index(self, path: str, items: Sequence[Tuple[int, int]],
                    fanout: int = 16):
        """Build the same B-tree on every target (for chain pushdown).

        Returns the root offset.  The tree is built once, in memory, and
        that one image is written into every target as views, so the
        targets' devices share its bytes.  Called before traffic, so the
        trees land in each target's setup checkpoint and survive a crash;
        chains against them are installed per connection by the client.
        """
        image = BTree.build_image(items, fanout=fanout)
        for target in self.targets:
            tree = BTree.write_image(target.kernel.fs, path, image)
            target.kernel.fs.checkpoint_sync()
        return tree.meta.root_offset
