"""A latency/bandwidth network model on the discrete-event simulator.

:class:`NetworkFabric` moves opaque frames between endpoints over
unidirectional :class:`Link` objects.  Each link models the two costs a
real NIC-to-NIC path charges:

* **Serialization.**  A link owns a one-slot
  :class:`~repro.sim.resources.Resource`; a frame holds the slot for
  ``bytes * 8 / gbit_per_s`` nanoseconds, so back-to-back frames queue
  behind each other exactly as they would on a wire.
* **Propagation.**  After serialization the frame travels for the
  configured one-way latency (plus optional jitter drawn from a
  dedicated deterministic RNG stream), during which the link is free for
  the next frame — frames are pipelined, not stop-and-wait.

The fabric is also where the fault plan touches the network: before a
frame propagates, :meth:`~repro.faults.plan.FaultPlan.net_decision` may
drop it (it simply never arrives; recovery is the client's retransmission
with the same request id) or hold it ``net_delay_ns`` extra.  Both fates
are emitted as ``fault_inject`` tracepoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import InvalidArgument
from repro.faults.plan import (
    FAULT_NET_DELAY,
    FAULT_NET_DROP,
    FaultPlan,
    get_default_fault_spec,
)
from repro.obs import events as obs_events
from repro.obs.bus import TraceBus, get_default_bus
from repro.sim import RandomStreams, Simulator
from repro.sim.resources import Resource

__all__ = ["Link", "NetConfig", "NetworkFabric"]


@dataclass(frozen=True)
class NetConfig:
    """Knobs for one simulated network fabric."""

    #: One-way propagation latency in simulated ns (RTT is twice this
    #: plus two serializations).
    one_way_ns: int = 5_000
    #: Link rate; 100 Gbit/s conveniently serializes one bit in 0.01 ns.
    gbit_per_s: float = 100.0
    #: Uniform jitter as a fraction of ``one_way_ns`` (0 disables the
    #: draw entirely, keeping the RNG stream untouched).
    jitter: float = 0.0
    #: Seed for the fabric's jitter stream.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.one_way_ns < 0:
            raise InvalidArgument("one_way_ns must be >= 0")
        if self.gbit_per_s <= 0:
            raise InvalidArgument("gbit_per_s must be > 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise InvalidArgument("jitter must be in [0, 1]")

    def serialize_ns(self, nbytes: int) -> int:
        """Wire time to clock ``nbytes`` onto the link."""
        return int(nbytes * 8 / self.gbit_per_s)


class Link:
    """One unidirectional wire: a serializer slot plus delivery callback."""

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.serializer = Resource(sim, 1, name=f"link-{name}")
        #: Set by the receiving endpoint; called with the frame bytes.
        self.deliver: Optional[Callable[[bytes], None]] = None
        self.frames_sent = 0
        self.frames_dropped = 0
        self.frames_delayed = 0
        self.bytes_sent = 0


class NetworkFabric:
    """The shared medium: builds links and ships frames across them."""

    def __init__(self, sim: Simulator, config: Optional[NetConfig] = None,
                 plan: Optional[FaultPlan] = None,
                 bus: Optional[TraceBus] = None):
        self.sim = sim
        self.config = config or NetConfig()
        self.bus = bus if bus is not None else get_default_bus()
        if plan is None:
            # Mirror Kernel: pick up the process-default spec (installed
            # by ``fault_injection``) so ``--fault-plan`` reaches the
            # fabric without threading a parameter through every layer.
            spec = get_default_fault_spec()
            if spec is not None and spec.any_net_faults():
                plan = FaultPlan(spec, kernel_seed=self.config.seed)
        self.plan = plan
        self._jitter_rng = (
            RandomStreams(self.config.seed).stream("net-jitter")
            if self.config.jitter > 0 else None)

    def new_link(self, name: str) -> Link:
        return Link(self.sim, name)

    def transmit(self, link: Link, frame: bytes, request_id: int = 0) -> None:
        """Ship ``frame`` down ``link`` (fire-and-forget, like a NIC).

        Starts a background process nobody waits on: serialize (queueing
        behind earlier frames), consult the fault plan, then propagate and
        deliver.  ``request_id`` keys the drop episodes so a
        retransmission of the same RPC frame is recognised by the plan.
        """
        if link.deliver is None:
            raise InvalidArgument(f"link {link.name!r} has no receiver")
        self.sim.start(self._ship(link, frame, request_id),
                       f"net-{link.name}")

    def _ship(self, link: Link, frame: bytes, request_id: int):
        config = self.config
        yield from link.serializer.execute(config.serialize_ns(len(frame)))
        link.frames_sent += 1
        link.bytes_sent += len(frame)
        decision = (self.plan.net_decision((link.name, request_id),
                                           self.sim.now)
                    if self.plan is not None else None)
        delay = config.one_way_ns
        if self._jitter_rng is not None:
            delay += int(self._jitter_rng.random() * config.jitter *
                         config.one_way_ns)
        if decision == FAULT_NET_DROP:
            link.frames_dropped += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.FAULT_INJECT, self.sim.now,
                              kind=FAULT_NET_DROP, link=link.name,
                              request_id=request_id, bytes=len(frame))
            return
        if decision == FAULT_NET_DELAY:
            link.frames_delayed += 1
            delay += self.plan.spec.net_delay_ns
            if self.bus.enabled:
                self.bus.emit(obs_events.FAULT_INJECT, self.sim.now,
                              kind=FAULT_NET_DELAY, link=link.name,
                              request_id=request_id,
                              delay_ns=self.plan.spec.net_delay_ns)
        if delay > 0:
            yield self.sim.timeout(delay)
        link.deliver(frame)
