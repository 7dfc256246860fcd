"""The cluster client: ring routing, bounded retry, failover detection.

:class:`ClusterClient` owns one :class:`~repro.net.transport.Connection`
per target and routes each key's PUT/GET to its shard's *current*
primary.  When a primary stops answering, the RPC layer raises
:class:`~repro.errors.RpcTimeout` (carrying the op / request id /
attempt count), the client reports the target to the cluster — which
promotes the replica if the target really is down — and retries the
same operation against the new primary with bounded exponential
backoff.

**Read-your-writes.**  The client remembers the version stamp of every
acked PUT.  A later GET for the same key must come back with at least
that version; anything lower is counted in ``stale_reads`` (the
experiment asserts it stays zero across a mid-run primary crash, which
is exactly the guarantee ack-after-replica replication buys).

**Chains.**  ``install_chains`` ships one traversal program to *every*
target — each re-verifies it server-side and assigns a per-connection
chain id — so ``index_get`` pushdowns keep working no matter which
target currently owns the shard.  After a crashed target rejoins, its
per-connection chain state is gone by design (the fds it referenced
died with the old file system); ``reinstall_chains`` re-ships and
re-verifies on that target alone.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.cluster import StorageCluster
from repro.errors import InvalidArgument, RpcTimeout
from repro.net import RemoteClient, wire
from repro.sim import exponential_backoff_ns

__all__ = ["ClusterClient"]

#: Timed-out attempts on one op (each reported to the cluster, which may
#: promote the replica) before the ``RpcTimeout`` reaches the caller, and
#: the base of the exponential backoff between them.
_MAX_FAILOVER_RETRIES = 4
_RETRY_BACKOFF_NS = 100_000


class ClusterClient:
    """One application's routed, failover-aware session with a cluster."""

    def __init__(self, cluster: StorageCluster, name: str = "client",
                 window: int = 8,
                 tenant: Optional[str] = None, **conn_kwargs):
        self.cluster = cluster
        # One logical client is one tenant on every target it talks to
        # (default: the client name, when any target has QoS armed).
        if tenant is None and any(t.kernel.qos is not None
                                  for t in cluster.targets):
            tenant = name
        self.tenant = tenant
        self.remotes: Dict[int, RemoteClient] = {
            target.target_id: target.connect(
                cluster.fabric, f"{name}-t{target.target_id}", tenant=tenant,
                window=window, **conn_kwargs)
            for target in cluster.targets}
        #: key -> (version, value) of the latest *acknowledged* PUT:
        #: the read-your-writes obligation.
        self.acked: Dict[int, Tuple[int, int]] = {}
        self.stale_reads = 0
        self.failovers_observed = 0
        #: Simulated time of the first successful op on a crash-affected
        #: shard — ``availability_gap_ns`` measures detection + promotion.
        self.first_ok_after_crash: Optional[int] = None
        self.chain_ids: Dict[int, int] = {}
        self._chain_setup = None

    @property
    def qos_backoffs(self) -> int:
        """EAGAIN sleeps actually taken, summed over every target."""
        return sum(remote.qos_backoffs for remote in self.remotes.values())

    # -- KV operations -------------------------------------------------

    def put(self, key: int, value: int):
        """Replicated PUT (generator): returns the stamped version."""
        (version,) = yield from self._routed(
            key, lambda t: self.remotes[t].rpc(wire.OP_PUT, key, value))
        self.acked[key] = (version, value)
        return version

    def get(self, key: int):
        """Routed GET (generator): ``(value, version, found)``.

        Checks the reply against the read-your-writes obligation and
        counts violations in ``stale_reads``.
        """
        found, version, value = yield from self._routed(
            key, lambda t: self.remotes[t].rpc(wire.OP_GET, key))
        want = self.acked.get(key)
        if want is not None and (not found or version < want[0]):
            self.stale_reads += 1
        return (value if found else None), version, found

    def _routed(self, key: int, attempt_on):
        """Run one op on the shard's primary; fail over on timeout.

        ``attempt_on(target_id)`` is the op as a generator against one
        target's :class:`~repro.net.RemoteClient` (which owns the
        EAGAIN backoff).  A dead primary surfaces as
        :class:`~repro.errors.RpcTimeout`: the client reports it — the
        cluster promotes the replica if the target really is down — and
        retries against the shard's new primary with bounded exponential
        backoff.  Generator returning whatever ``attempt_on`` returns.
        """
        shard = self.cluster.ring.shard_for(key)
        started = self.cluster.sim.now
        attempt = 0
        while True:
            target_id = self.cluster.primary[shard]
            try:
                result = yield from attempt_on(target_id)
            except RpcTimeout as timeout:
                attempt += 1
                if self.cluster.report_timeout(target_id, cause=timeout):
                    self.failovers_observed += 1
                if attempt > _MAX_FAILOVER_RETRIES:
                    raise
                yield self.cluster.sim.timeout(exponential_backoff_ns(
                    _RETRY_BACKOFF_NS, attempt))
                continue
            self._note_ok(shard, started)
            return result

    def _note_ok(self, shard: int, started: int) -> None:
        # Only an op *issued* at/after the cut proves the shard is back:
        # a pre-crash op whose reply was already in flight does not.
        cluster = self.cluster
        if (cluster.crash_ts is not None
                and self.first_ok_after_crash is None
                and started >= cluster.crash_ts
                and shard in cluster.affected_shards):
            self.first_ok_after_crash = cluster.sim.now

    @property
    def availability_gap_ns(self) -> Optional[int]:
        """Crash to first completed op on an affected shard, in sim ns."""
        if self.cluster.crash_ts is None or self.first_ok_after_crash is None:
            return None
        return self.first_ok_after_crash - self.cluster.crash_ts

    # -- chain pushdown across failover --------------------------------

    def install_chains(self, path: str, program, **kwargs):
        """Ship ``program`` to every target (generator).

        Each target re-verifies it and hands back a per-connection
        chain id, so pushdown GETs survive any single failover without
        a reinstall.
        """
        self._chain_setup = (path, program, kwargs)
        for target_id in sorted(self.remotes):
            yield from self.reinstall_chains(target_id)

    def reinstall_chains(self, target_id: int):
        """Ship the program to one target, e.g. a rejoined one (generator)."""
        if self._chain_setup is None:
            raise InvalidArgument("no chain program was ever installed")
        path, program, kwargs = self._chain_setup
        chain_id = yield from self.remotes[target_id].install_chain(
            path, program, **kwargs)
        self.chain_ids[target_id] = chain_id
        return chain_id

    def index_get(self, key: int, root_offset: int = 0):
        """Pushdown B-tree GET routed like any other op (generator).

        Returns ``(value, found)``; fails over to the replica's
        (identically installed, independently re-verified) chain when
        the primary is dead.
        """
        value, found, _rpcs = yield from self._routed(
            key, lambda t: self.remotes[t].remote_btree_get(
                key, mode="pushdown", chain_id=self.chain_ids[t],
                root_offset=root_offset))
        return value, found
