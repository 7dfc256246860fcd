"""Cross-layer observability: tracepoint bus, metrics, per-I/O spans.

The ``repro.obs`` package gives the simulated storage stack the tools a
real kernel answers performance questions with — tracepoints, counters,
and per-request attribution:

- :mod:`repro.obs.bus` — zero-dependency pub/sub :class:`TraceBus` with
  an off-by-default no-op fast path.
- :mod:`repro.obs.events` — the typed event catalogue.
- :mod:`repro.obs.metrics` — Prometheus-style counters / gauges /
  fixed-bucket histograms and a :class:`MetricsRegistry`.
- :mod:`repro.obs.subscribers` — the standard stack-health metrics.
- :mod:`repro.obs.spans` — per-operation span trees and the layer
  ledger: every simulated ns of an operation in exactly one layer, with
  flamegraph-style rendering that shows which layers a BPF-recycled I/O
  bypassed.
- :mod:`repro.obs.export` — deterministic JSONL export.
- :mod:`repro.obs.session` — :class:`ObsSession`, the bundle the CLI
  ``metrics`` subcommand uses.

See ``docs/observability.md`` for the full catalogue and examples.
"""

from repro.obs import events
from repro.obs.bus import NULL_BUS, TraceBus, get_default_bus, set_default_bus
from repro.obs.events import TraceEvent
from repro.obs.export import JsonlRecorder, dump_metrics_jsonl, load_metrics_jsonl
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.session import ObsSession
from repro.obs.spans import ATTRIBUTION, Span, SpanCollector
from repro.obs.subscribers import attach_standard_metrics

__all__ = [
    "ATTRIBUTION",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlRecorder",
    "MetricsRegistry",
    "NULL_BUS",
    "ObsSession",
    "Span",
    "SpanCollector",
    "TraceBus",
    "TraceEvent",
    "attach_standard_metrics",
    "dump_metrics_jsonl",
    "events",
    "get_default_bus",
    "load_metrics_jsonl",
    "set_default_bus",
]
