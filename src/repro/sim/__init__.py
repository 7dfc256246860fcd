"""Deterministic discrete-event simulation kernel.

Everything in the repro library that models time — kernel layer costs, device
service latency, CPU contention — runs on this engine.  Time is an integer
number of **nanoseconds**; the engine is fully deterministic (ties broken by
schedule order) so experiments reproduce exactly.

Public surface:

* :class:`~repro.sim.engine.Simulator` — event loop and process spawner.
* :class:`~repro.sim.engine.Event` / :class:`~repro.sim.engine.Process` —
  awaitable primitives for generator-based processes.
* :class:`~repro.sim.resources.Resource` — capacity-limited resource with
  priorities (used for CPU cores, device service units).
* :class:`~repro.sim.resources.Store` — FIFO queue of items (used for NVMe
  submission/completion queues).
* :mod:`~repro.sim.stats` — latency recorders and throughput meters.
* :mod:`~repro.sim.rng` — named deterministic random streams.
"""

from repro.sim.engine import (
    Event,
    Process,
    Simulator,
    Timeout,
    exponential_backoff_ns,
)
from repro.sim.resources import CpuSet, Resource, Store
from repro.sim.rng import RandomStreams
from repro.sim.stats import LatencyRecorder, ThroughputMeter

__all__ = [
    "CpuSet",
    "Event",
    "LatencyRecorder",
    "Process",
    "RandomStreams",
    "Resource",
    "Simulator",
    "Store",
    "ThroughputMeter",
    "Timeout",
    "exponential_backoff_ns",
]
