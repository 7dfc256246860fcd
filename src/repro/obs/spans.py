"""Per-I/O span trees and flamegraph-style text rendering.

Every request submitted through the instrumented stack carries a span
id.  Chain hops open child spans of the originating request's root
span, so a BPF-recycled B-tree walk becomes a tree:

.. code-block:: text

    read_chain #17 path=chain 0..25936ns  [storage device 9672, NVMe driver 339, ...]
      chain_hop #18 hop=1 3224..6528ns  [irq 250, bpf 80, NVMe driver 113]
      chain_hop #19 hop=2 6528..9832ns  [irq 250, bpf 80, NVMe driver 113]

The :class:`SpanCollector` subscribes to a bus, reconstructs the trees
from ``span_start``/``span_end`` events, and folds every other event
carrying a ``span`` field into that span's per-layer CPU-ns breakdown
using the Table-1 attribution mapping from
:mod:`repro.obs.subscribers`.  The rendering makes layer *bypass*
visible: a chain root span has no ``ext4``/``bio``/``read syscall``
entries after the first hop, exactly the savings the paper's Figure 1
argues for.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.bus import TraceBus
from repro.obs.events import SPAN_END, SPAN_START, TraceEvent

__all__ = ["Span", "SpanCollector"]


class Span:
    """One node of a per-I/O span tree."""

    __slots__ = ("sid", "parent", "name", "start_ns", "end_ns", "attrs",
                 "children", "layers")

    def __init__(self, sid: int, parent: int, name: str, start_ns: int,
                 attrs: Dict[str, Any]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.children: List["Span"] = []
        self.layers: Dict[str, int] = {}

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def charge(self, layer: str, ns: int) -> None:
        """Accumulate ``ns`` of CPU/device time against ``layer``."""
        self.layers[layer] = self.layers.get(layer, 0) + ns

    def total_ns(self) -> int:
        """Sum of charged layer time in this span only (not children)."""
        return sum(self.layers.values())

    def walk(self):
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


class SpanCollector:
    """Reconstructs span trees from bus events.

    Keeps at most ``max_roots`` most-recent root spans (older roots are
    dropped deterministically in arrival order) so long runs stay
    bounded.  Events that carry a ``span`` field but are not
    span_start/span_end are folded into the span's per-layer breakdown
    via the attribution mapping.
    """

    def __init__(self, bus: TraceBus, max_roots: int = 256):
        from repro.obs.subscribers import ATTRIBUTION  # avoid import cycle

        self._fields_by_etype: Dict[str, List] = {}
        for (etype, field), layer in ATTRIBUTION.items():
            self._fields_by_etype.setdefault(etype, []).append((field, layer))
        self.max_roots = max_roots
        self.roots: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self.dropped_roots = 0
        bus.subscribe(self._on_event)

    # -- event handling ----------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        if event.etype == SPAN_START:
            self._start(event)
        elif event.etype == SPAN_END:
            self._end(event)
        else:
            self._charge(event)

    def _start(self, event: TraceEvent) -> None:
        fields = dict(event.fields)
        sid = fields.pop("span")
        parent_id = fields.pop("parent", 0)
        name = fields.pop("name", "span")
        span = Span(sid, parent_id, name, event.ts, fields)
        self._by_id[sid] = span
        parent = self._by_id.get(parent_id) if parent_id else None
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
            if len(self.roots) > self.max_roots:
                evicted = self.roots.pop(0)
                self.dropped_roots += 1
                for node in evicted.walk():
                    self._by_id.pop(node.sid, None)

    def _end(self, event: TraceEvent) -> None:
        sid = event.get("span", 0)
        span = self._by_id.get(sid)
        if span is None:
            return
        span.end_ns = event.ts
        for key, value in event.fields.items():
            if key != "span":
                span.attrs[key] = value

    def _charge(self, event: TraceEvent) -> None:
        sid = event.get("span", 0)
        if not sid:
            return
        span = self._by_id.get(sid)
        if span is None:
            return
        for field, layer in self._fields_by_etype.get(event.etype, ()):
            ns = event.get(field, 0)
            if ns:
                span.charge(layer, ns)

    # -- queries -----------------------------------------------------------

    def find_roots(self, name: Optional[str] = None) -> List[Span]:
        """Root spans, optionally filtered by span name."""
        if name is None:
            return list(self.roots)
        return [s for s in self.roots if s.name == name]

    # -- rendering ---------------------------------------------------------

    def render_span(self, span: Span, indent: int = 0) -> List[str]:
        """Flamegraph-style text lines for one span tree."""
        pad = "  " * indent
        end = span.end_ns if span.end_ns is not None else "?"
        attr_str = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        layer_str = ", ".join(f"{layer} {ns}" for layer, ns in
                              sorted(span.layers.items(),
                                     key=lambda kv: (-kv[1], kv[0])))
        line = f"{pad}{span.name} #{span.sid} {span.start_ns}..{end}ns"
        if attr_str:
            line += f" {attr_str}"
        if layer_str:
            line += f"  [{layer_str}]"
        lines = [line]
        for child in span.children:
            lines.extend(self.render_span(child, indent + 1))
        return lines

    def render(self, name: Optional[str] = None, limit: int = 5) -> str:
        """Render up to ``limit`` root span trees as text."""
        roots = self.find_roots(name)[:limit]
        lines: List[str] = []
        for root in roots:
            lines.extend(self.render_span(root))
        return "\n".join(lines)
