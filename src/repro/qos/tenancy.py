"""Tenant identities and the QoS configuration surface.

The exokernel pitch of the source paper is that the kernel *safely
multiplexes* raw storage among untrusting applications.  This module
names the parties being multiplexed: a :class:`Tenant` is a first-class
identity (replacing pid-keyed ad-hoc accounting) that owns a weight and
optional rate limits, and :class:`QosConfig` is the single knob block
threaded through :class:`~repro.kernel.kernel.KernelConfig`.

``QosConfig`` is **default-off**: a kernel built without one constructs
no QoS objects, draws no extra randomness, and emits no extra events —
its behaviour is byte-identical to a tree without this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import InvalidArgument

__all__ = ["QosConfig", "Tenant"]


@dataclass(frozen=True)
class Tenant:
    """One isolation domain: a name, a WFQ weight, and optional rates.

    ``weight`` sets the tenant's share of device bandwidth under
    weighted-fair queueing (a weight-3 tenant gets 3x the throughput of
    a weight-1 tenant when both are backlogged).  ``admit_tokens_per_ms``
    / ``admit_burst`` override the config-wide admission rate for this
    tenant; ``None`` inherits the :class:`QosConfig` defaults.
    """

    name: str
    weight: int = 1
    admit_tokens_per_ms: Optional[int] = None
    admit_burst: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InvalidArgument("name: tenant name must be non-empty")
        if self.weight < 1:
            raise InvalidArgument(f"weight: must be >= 1, got {self.weight}")
        if self.admit_tokens_per_ms is not None and \
                self.admit_tokens_per_ms < 1:
            raise InvalidArgument("admit_tokens_per_ms: must be >= 1")
        if self.admit_burst is not None and self.admit_burst < 1:
            raise InvalidArgument("admit_burst: must be >= 1")


@dataclass(frozen=True)
class QosConfig:
    """Per-tenant QoS policy for one kernel (default-off when absent).

    * ``tenants`` declares the known tenants and their weights; traffic
      from an undeclared tenant gets ``default_weight`` and the
      config-wide rates.  Untenanted kernel-internal I/O (journal
      commits, cache flushes) schedules at ``system_weight``.
    * ``admit_tokens_per_ms`` / ``admit_burst`` arm admission control at
      the storage-target boundary: each tenant draws one token per RPC
      from a deterministic bucket, and an empty bucket refuses the op
      with typed ``EAGAIN`` backpressure carrying ``retry_after_ns``.
      ``0`` disables admission (WFQ still applies).
    * ``chain_tokens_per_ms`` / ``chain_burst`` arm the chain-engine
      throttle: BPF resubmissions beyond the rate are *paced* (delayed,
      never dropped) so one tenant's chain storm cannot monopolise the
      IRQ path.  The per-tenant rate scales with the tenant's weight.
      ``0`` disables the throttle.

    Weighted-fair queueing at the NVMe submission queues is armed
    whenever a kernel is built with a ``QosConfig``.
    """

    tenants: Tuple[Tenant, ...] = ()
    default_weight: int = 1
    system_weight: int = 8
    admit_tokens_per_ms: int = 0
    admit_burst: int = 32
    chain_tokens_per_ms: int = 0
    chain_burst: int = 32

    def __post_init__(self) -> None:
        if self.default_weight < 1 or self.system_weight < 1:
            raise InvalidArgument("default_weight/system_weight: must be >= 1")
        if self.admit_tokens_per_ms < 0 or self.chain_tokens_per_ms < 0:
            raise InvalidArgument("token rates must be >= 0 (0 = disabled)")
        if self.admit_burst < 1 or self.chain_burst < 1:
            raise InvalidArgument("admit_burst/chain_burst: must be >= 1")
        names = [tenant.name for tenant in self.tenants]
        if len(names) != len(set(names)):
            raise InvalidArgument("tenants: duplicate tenant name")

    def tenant(self, name: str) -> Tenant:
        """The declared :class:`Tenant`, or a default-weight one."""
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        return Tenant(name, weight=self.default_weight)

    def weight_of(self, name: Optional[str]) -> int:
        """WFQ weight for a tenant name (``None`` = kernel-internal)."""
        if name is None:
            return self.system_weight
        return self.tenant(name).weight
