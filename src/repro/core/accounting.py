"""Per-tenant chained-resubmission accounting (paper §4, Fairness).

The NVMe layer cannot enforce fairness through the block scheduler (BPF
reissues never pass through it), so the paper proposes a per-process counter
of chained submissions with a hard bound per chain, periodically drained to
the BIO layer for accounting.  Both pieces are implemented here.

Accounting keys on the *tenant* when the charged process carries one
(:attr:`~repro.kernel.process.Process.tenant`), falling back to the pid
for untenanted processes — so a tenant's counters survive its processes.
Per-connection target processes are torn down and respawned across
cluster rejoins; pid-keyed entries leaked one row per incarnation, while
a tenant key is reused and :meth:`ChainAccounting.forget` clears what a
teardown leaves behind.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.errors import InvalidArgument
from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS

__all__ = ["ChainAccounting"]

#: An accounting key: a tenant name, or a pid for untenanted processes.
Owner = Union[int, str]


def _sort_key(key: Owner):
    """Order int pids numerically before str tenant names (stable)."""
    return (isinstance(key, str), key if isinstance(key, int) else 0,
            str(key))


class ChainAccounting:
    """Tracks chained resubmissions per tenant and bounds chain depth."""

    def __init__(self, max_chain_hops: int = 64):
        if max_chain_hops < 1:
            raise InvalidArgument("max_chain_hops must be >= 1")
        self.max_chain_hops = max_chain_hops
        #: Observability: the owning StorageBpf points these at the
        #: kernel's bus/clock; standalone instances keep disabled defaults.
        self.bus = NULL_BUS
        self.clock: Callable[[], int] = lambda: 0
        #: Cumulative resubmissions per owner since the last drain.
        self._pending: Dict[Owner, int] = {}
        #: Lifetime totals per owner (never reset; for tests/metrics).
        self.totals: Dict[Owner, int] = {}
        #: Chains killed by the bound, per owner.
        self.chains_killed: Dict[Owner, int] = {}

    @staticmethod
    def key_for(owner) -> Owner:
        """The accounting key: tenant name if the owner has one, else pid.

        Accepts a :class:`~repro.kernel.process.Process` or an already-
        resolved key (pid or tenant name), so call sites and tests can
        pass whichever they hold.
        """
        tenant = getattr(owner, "tenant", None)
        if tenant is not None:
            return tenant.name
        pid = getattr(owner, "pid", None)
        return pid if pid is not None else owner

    def may_resubmit(self, owner, hops_completed: int) -> bool:
        """True if a chain with ``hops_completed`` hops may issue another."""
        return hops_completed < self.max_chain_hops

    def charge(self, owner) -> None:
        """Record one chained resubmission for ``owner``'s tenant/pid."""
        key = self.key_for(owner)
        self._pending[key] = self._pending.get(key, 0) + 1
        self.totals[key] = self.totals.get(key, 0) + 1

    def record_kill(self, owner) -> None:
        key = self.key_for(owner)
        self.chains_killed[key] = self.chains_killed.get(key, 0) + 1

    def drain_to_bio(self) -> Dict[Owner, int]:
        """Hand the per-tenant counts to the BIO layer (paper §4).

        Returns and clears the pending counters; the caller (the BIO
        accounting tick) can feed them into whatever fairness policy it
        runs.
        """
        drained, self._pending = self._pending, {}
        if self.bus.enabled:
            self.bus.emit(obs_events.RESUBMIT_DRAIN, self.clock(),
                          pids={str(key): count
                                for key, count in sorted(drained.items(),
                                                         key=_sort_key)},
                          total=sum(drained.values()))
        return drained

    def forget(self, owner) -> None:
        """Drop all state for ``owner`` (process/tenant teardown).

        Called when a cluster target tears down per-connection processes
        (crash, rejoin) so a departed owner cannot leak pending/total/kill
        entries across incarnations.
        """
        key = self.key_for(owner)
        self._pending.pop(key, None)
        self.totals.pop(key, None)
        self.chains_killed.pop(key, None)
