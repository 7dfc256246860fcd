"""A latency/bandwidth network model on the discrete-event simulator.

:class:`NetworkFabric` moves opaque frames between endpoints over
unidirectional :class:`Link` objects.  Each link is a FIFO timeline
that charges the two costs a real NIC-to-NIC path charges:

* **Serialization.**  A frame clocks onto the wire at a fixed 100 Gbit/s
  (``bytes * 8 / 100`` ns), starting when the link finishes the frame
  before it, so back-to-back frames queue behind each other exactly as
  they would on a wire.
* **Propagation.**  After serialization the frame travels for the
  configured one-way latency, during which the link is free for the
  next frame — frames are pipelined, not stop-and-wait.

So a link delivers in send order; only a fault plan's ``net_delay``
episode can let a later frame overtake.  The fabric is also where the
fault plan touches the network: at the instant a frame finishes
serializing, :meth:`~repro.faults.plan.FaultPlan.net_decision` may drop
it (it simply never arrives; recovery is the client's retransmission
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
from repro.sim import Simulator

__all__ = ["Link", "NetConfig", "NetworkFabric", "serialize_ns"]


def serialize_ns(nbytes: int) -> int:
    """Wire time to clock ``nbytes`` onto a 100 Gbit/s link."""
    return nbytes * 8 // 100


@dataclass(frozen=True)
class NetConfig:
    """Knobs for one simulated network fabric."""

    #: One-way propagation latency in simulated ns (RTT is twice this
    #: plus two serializations).
    one_way_ns: int = 5_000
    #: Seeds the fault plan the fabric builds from the process-default
    #: fault spec (``--fault-plan``); unused otherwise.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.one_way_ns < 0:
            raise InvalidArgument("one_way_ns must be >= 0")


class Link:
    """One unidirectional wire: a serialization timeline plus receiver."""

    def __init__(self, name: str):
        self.name = name
        #: Simulated instant the last frame sent finishes serializing.
        self.free_at = 0
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

    def new_link(self, name: str) -> Link:
        return Link(name)

    def transmit(self, link: Link, frame: bytes, request_id: int = 0) -> None:
        """Ship ``frame`` down ``link`` (fire-and-forget, like a NIC).

        Queues the frame on the link's timeline and arms one timeout for
        the instant it finishes serializing; nothing waits on it.
        ``request_id`` keys the drop episodes so a retransmission of the
        same RPC frame is recognised by the plan.
        """
        if link.deliver is None:
            raise InvalidArgument(f"link {link.name!r} has no receiver")
        now = self.sim.now
        done = max(now, link.free_at) + serialize_ns(len(frame))
        link.free_at = done
        self.sim.timeout(done - now).callbacks.append(
            lambda _event: self._serialized(link, frame, request_id))

    def _serialized(self, link: Link, frame: bytes, request_id: int) -> None:
        """The frame is on the wire: consult the plan, then propagate."""
        sim = self.sim
        link.frames_sent += 1
        link.bytes_sent += len(frame)
        decision = (self.plan.net_decision((link.name, request_id), sim.now)
                    if self.plan is not None else None)
        delay = self.config.one_way_ns
        if decision == FAULT_NET_DROP:
            link.frames_dropped += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.FAULT_INJECT, sim.now,
                              kind=FAULT_NET_DROP, link=link.name,
                              request_id=request_id, bytes=len(frame))
            return
        if decision == FAULT_NET_DELAY:
            link.frames_delayed += 1
            delay += self.plan.spec.net_delay_ns
            if self.bus.enabled:
                self.bus.emit(obs_events.FAULT_INJECT, sim.now,
                              kind=FAULT_NET_DELAY, link=link.name,
                              request_id=request_id,
                              delay_ns=self.plan.spec.net_delay_ns)
        if delay > 0:
            sim.timeout(delay).callbacks.append(
                lambda _event: link.deliver(frame))
        else:
            link.deliver(frame)
