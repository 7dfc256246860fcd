"""The per-kernel QoS authority: buckets, weights, and QoS tracepoints.

One :class:`QosManager` is built by the kernel when its
:class:`~repro.kernel.kernel.KernelConfig` carries a
:class:`~repro.qos.tenancy.QosConfig`; every enforcement point
(storage-target admission, NVMe WFQ arbitration, chain-engine pacing)
consults it rather than owning policy of its own.  All decisions are
deterministic functions of simulated time, so QoS-enabled runs replay
byte-identically.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs import events as obs_events
from repro.obs.bus import NULL_BUS
from repro.qos.shapers import TokenBucket
from repro.qos.tenancy import QosConfig

__all__ = ["QosManager"]


class QosManager:
    """Owns per-tenant token buckets and answers QoS policy questions."""

    def __init__(self, config: QosConfig, bus=NULL_BUS,
                 clock: Callable[[], int] = lambda: 0):
        self.config = config
        self.bus = bus
        self.clock = clock
        self._admit_buckets: Dict[str, TokenBucket] = {}
        self._chain_buckets: Dict[str, TokenBucket] = {}
        # -- plain counters (maintained with or without a bus) ----------
        self.admitted: Dict[str, int] = {}
        self.admit_rejected: Dict[str, int] = {}
        self.chain_throttles: Dict[str, int] = {}
        self.chain_throttle_ns: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Admission control (storage-target boundary)
    # ------------------------------------------------------------------

    def admit(self, tenant_name: Optional[str], cost: int = 1) -> int:
        """Draw ``cost`` admission tokens for ``tenant_name``.

        Returns 0 when admitted.  When the tenant is over rate, returns
        the exact simulated-time ``retry_after_ns`` after which the same
        request will succeed, emits ``qos_admit_reject``, and consumes
        nothing — the caller turns this into typed ``EAGAIN``
        backpressure.  System traffic (``tenant_name is None``) is never
        refused: admission control exists to protect the kernel's own
        work (journal, replication) from tenants, not the reverse.
        """
        if tenant_name is None:
            return 0
        tenant = self.config.tenant(tenant_name)
        rate = (tenant.admit_tokens_per_ms
                if tenant.admit_tokens_per_ms is not None
                else self.config.admit_tokens_per_ms)
        if rate <= 0:
            self.admitted[tenant_name] = \
                self.admitted.get(tenant_name, 0) + 1
            return 0
        bucket = self._admit_buckets.get(tenant_name)
        if bucket is None:
            burst = (tenant.admit_burst if tenant.admit_burst is not None
                     else self.config.admit_burst)
            bucket = TokenBucket(rate, burst, now_ns=self.clock())
            self._admit_buckets[tenant_name] = bucket
        retry_after = bucket.take(self.clock(), cost)
        if retry_after == 0:
            self.admitted[tenant_name] = \
                self.admitted.get(tenant_name, 0) + 1
            return 0
        self.admit_rejected[tenant_name] = \
            self.admit_rejected.get(tenant_name, 0) + 1
        if self.bus.enabled:
            self.bus.emit(obs_events.QOS_ADMIT_REJECT, self.clock(),
                          tenant=tenant_name, cost=cost,
                          retry_after_ns=retry_after,
                          rejected=self.admit_rejected[tenant_name])
        return retry_after

    # ------------------------------------------------------------------
    # Chain-engine pacing (IRQ-context resubmissions)
    # ------------------------------------------------------------------

    def chain_pace(self, tenant_name: Optional[str], span: int = 0) -> int:
        """ns a chain resubmission must wait to stay within rate (the
        ``qos_throttle`` event names the hop's ``span``).

        Pacing, not refusal: the resubmission always proceeds, but a
        tenant whose chain storm exceeds ``chain_tokens_per_ms * weight``
        accrues deterministic delay, bounding the IRQ-path bandwidth it
        can take from other tenants.  Untenanted chains are never paced.
        """
        rate = self.config.chain_tokens_per_ms
        if rate <= 0 or tenant_name is None:
            return 0
        bucket = self._chain_buckets.get(tenant_name)
        if bucket is None:
            bucket = TokenBucket(rate * self.config.weight_of(tenant_name),
                                 self.config.chain_burst,
                                 now_ns=self.clock())
            self._chain_buckets[tenant_name] = bucket
        delay = bucket.pace(self.clock())
        if delay:
            self.chain_throttles[tenant_name] = \
                self.chain_throttles.get(tenant_name, 0) + 1
            self.chain_throttle_ns[tenant_name] = \
                self.chain_throttle_ns.get(tenant_name, 0) + delay
            if self.bus.enabled:
                self.bus.emit(obs_events.QOS_THROTTLE, self.clock(),
                              tenant=tenant_name, delay_ns=delay,
                              throttles=self.chain_throttles[tenant_name],
                              span=span, path="chain")
        return delay

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def note_depth(self, queue: int, tenant_name: Optional[str],
                   depth: int) -> None:
        """Emit ``qos_tenant_depth`` for one WFQ enqueue (bus-gated)."""
        if self.bus.enabled:
            self.bus.emit(obs_events.QOS_TENANT_DEPTH, self.clock(),
                          tenant=tenant_name or "_system", queue=queue,
                          depth=depth)
