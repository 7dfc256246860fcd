"""Latency and throughput statistics for experiments.

All recorders are pure accumulation — they never touch wall-clock time, so
results are a deterministic function of the simulation.
"""

from __future__ import annotations

import math
from typing import List, Sequence

__all__ = ["LatencyRecorder", "ThroughputMeter", "percentile"]


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (``fraction`` in [0, 1])."""
    if not samples:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be within [0, 1], got {fraction}")
    ordered = sorted(samples)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


class LatencyRecorder:
    """Accumulates latency samples (ns) and reports summary statistics.

    Keeps every sample up to ``max_samples``, after which it switches to a
    deterministic stride-based thinning so memory stays bounded while the
    distribution shape is preserved for percentile queries.
    """

    def __init__(self, name: str = "latency", max_samples: int = 200_000):
        self.name = name
        self.count = 0
        self.total = 0
        self.min = None
        self.max = None
        self._samples: List[int] = []
        self._max_samples = max_samples
        self._stride = 1

    def record(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative latency sample: {value}")
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) >= self._max_samples:
                # Keep every other retained sample and double the stride.
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def samples(self) -> Sequence[int]:
        """The retained samples in recording order (read-only view)."""
        return tuple(self._samples)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return self.total / self.count

    def percentile(self, fraction: float) -> float:
        """Percentile of the retained samples.

        An empty recorder reports ``0.0`` (the module-level :func:`percentile` still rejects empty input —
        callers there passed an explicit sample set).
        """
        if not self._samples:
            if not 0.0 <= fraction <= 1.0:
                raise ValueError(
                    f"fraction must be within [0, 1], got {fraction}")
            return 0.0
        return percentile(self._samples, fraction)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

class ThroughputMeter:
    """Counts completed operations over a simulated time window."""

    def __init__(self, name: str = "throughput"):
        self.name = name
        self.completed = 0
        self._start = None
        self._end = None

    def start(self, now: int) -> None:
        """Begin the measurement window at simulated time ``now``."""
        self._start = now
        self._end = now
        self.completed = 0

    def record(self, now: int, operations: int = 1) -> None:
        if self._start is None:
            raise ValueError(f"{self.name!r} not started")
        self.completed += operations
        if now > self._end:
            self._end = now

    def stop(self, now: int) -> None:
        """Close the window (e.g. when the experiment's run time elapses)."""
        if self._start is None:
            raise ValueError(f"{self.name!r} not started")
        if now > self._end:
            self._end = now

    @property
    def elapsed_ns(self) -> int:
        if self._start is None:
            raise ValueError(f"{self.name!r} not started")
        return self._end - self._start

    def ops_per_sec(self) -> float:
        """Completed operations per simulated second.

        A zero-length (or never-started) window reports ``0.0`` instead
        of raising: an experiment that finished before any simulated
        time elapsed simply has no throughput.
        """
        if self._start is None:
            return 0.0
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            return 0.0
        return self.completed * 1e9 / elapsed
