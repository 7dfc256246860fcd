"""Prometheus-style metrics registry built on the sim stats primitives.

Counters, gauges, and fixed-bucket histograms with label sets.  The
registry snapshots to a deterministic, JSON-serialisable list of dicts
(metrics sorted by name then label values), which round-trips through
the JSONL exporter in :mod:`repro.obs.export`.

Histograms delegate count/total/min/max tracking to
:class:`repro.sim.stats.LatencyRecorder` so sampling behaviour matches
the rest of the codebase, and add fixed bucket counts on top (the
Prometheus cumulative-bucket convention, ``+Inf`` implicit).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.stats import LatencyRecorder

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing counter with label sets."""

    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(_label_key(labels), 0)

    def samples(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._values):
            out.append({"labels": dict(key), "value": self._values[key]})
        return out


class Gauge:
    """Set-to-current-value metric with label sets."""

    kind = "gauge"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._values[_label_key(labels)] = value

    def samples(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._values):
            out.append({"labels": dict(key), "value": self._values[key]})
        return out


class _HistogramSeries:
    """One labelled series of a histogram: recorder + bucket counts."""

    __slots__ = ("recorder", "bucket_counts")

    def __init__(self, name: str, buckets: Sequence[float]):
        self.recorder = LatencyRecorder(name=name)
        self.bucket_counts = [0] * len(buckets)


class Histogram:
    """Fixed-bucket histogram with label sets.

    ``buckets`` are upper bounds (cumulative, ``+Inf`` implicit).  Each
    labelled series wraps a :class:`LatencyRecorder` for count/total and
    percentile queries.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float], help: str = ""):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name!r} needs sorted, non-empty buckets")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(self.name, self.buckets)
        series.recorder.record(int(value))
        # bucket_counts holds per-bucket counts; snapshot() emits the
        # Prometheus cumulative convention.
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[i] += 1
                break

    def samples(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._series):
            series = self._series[key]
            rec = series.recorder
            cumulative = []
            running = 0
            for count in series.bucket_counts:
                running += count
                cumulative.append(running)
            out.append({
                "labels": dict(key),
                "count": rec.count,
                "sum": rec.total,
                "p50": rec.p50,
                "p95": rec.p95,
                "p99": rec.p99,
                "buckets": {str(bound): cum
                            for bound, cum in zip(self.buckets, cumulative)},
            })
        return out


class MetricsRegistry:
    """Named collection of counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create accessors, so
    subscribers can share metrics by name without coordination.
    """

    def __init__(self):
        self._metrics: Dict[str, Any] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name: str, buckets: Sequence[float],
                  help: str = "") -> Histogram:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = Histogram(name, buckets, help=help)
        elif not isinstance(metric, Histogram):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    def _get_or_create(self, name: str, cls, help: str = ""):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help=help)
        elif not isinstance(metric, cls):
            raise ValueError(f"metric {name!r} already registered as {metric.kind}")
        return metric

    def get(self, name: str) -> Optional[Any]:
        return self._metrics.get(name)

    def snapshot(self) -> List[Dict[str, Any]]:
        """Deterministic, JSON-serialisable dump of every metric."""
        out = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out.append({
                "name": name,
                "kind": metric.kind,
                "help": metric.help,
                "samples": metric.samples(),
            })
        return out

    def render(self) -> str:
        """Human-readable text dump (one line per labelled sample)."""
        lines: List[str] = []
        for entry in self.snapshot():
            for sample in entry["samples"]:
                labels = sample["labels"]
                label_str = ("{" + ",".join(f"{k}={v}" for k, v in
                                            sorted(labels.items())) + "}"
                             if labels else "")
                if entry["kind"] == "histogram":
                    lines.append(
                        f"{entry['name']}{label_str} "
                        f"count={sample['count']} sum={sample['sum']} "
                        f"p50={sample['p50']:g} p95={sample['p95']:g} "
                        f"p99={sample['p99']:g}")
                else:
                    lines.append(f"{entry['name']}{label_str} {sample['value']}")
        return "\n".join(lines)
