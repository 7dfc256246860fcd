"""Per-operation span trees and the layer ledger.

A *root* span is one operation (``sys_pread``, ``sys_pwrite``,
``sys_fsync``, ``uring_sqe``, ``read_chain``), open from before its first
charge until it returns; chain hops are child spans of their chain's
root.  :class:`SpanCollector` rebuilds the trees from the bus and keeps
the **ledger**: each :data:`ATTRIBUTION` field of an event claims
``[ts - ns, ts]`` of its root's timeline (a ``sleep``, announced when it
starts, ``[ts, ts + ns]``).  One cursor per root claims each ns once, so
parallel segments add only their critical path; the gap before a CPU
charge is ``cpu wait``; events of child spans charge their root; what is
left at close is ``unattributed``.  Per closed root, in integer ns,
``sum(ledger) == end - start``.  See ``docs/observability.md``.

.. code-block:: text

    read_chain #11009 1529024..1551592ns hops=4 path=chain pid=6 status=ok  [storage device 12896, sq wait 2662, ext4 2006, ...]
      chain_hop #11028 1535816..1536314ns hop=1 path=chain  [storage device 3224, sq wait 948, irq 250, bpf 135, NVMe driver 113]
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs import events as ev
from repro.obs.bus import TraceBus
from repro.obs.events import SPAN_END, SPAN_START, TraceEvent

__all__ = ["ATTRIBUTION", "LAYER_ORDER", "Span", "SpanCollector"]

#: (event type, ns field) -> layer: the Table-1 layers, the calibrated
#: layers Table 1 does not list, and the waits.  The one table the ledger
#: reads; within one event, fields claim in this order.
ATTRIBUTION: Dict[Tuple[str, str], str] = {
    (ev.SYSCALL_ENTER, "crossing_ns"): "kernel crossing",
    (ev.SYSCALL_ENTER, "syscall_ns"): "read syscall",
    (ev.SYSCALL_ENTER, "uring_ns"): "io_uring",
    (ev.FS_RESOLVE, "cpu_ns"): "ext4",
    (ev.JOURNAL_BEGIN, "cpu_ns"): "ext4",
    (ev.BIO_SUBMIT, "cpu_ns"): "bio",
    (ev.NVME_SUBMIT, "driver_ns"): "NVMe driver",
    (ev.NVME_COMPLETE, "queue_ns"): "sq wait",
    (ev.NVME_COMPLETE, "service_ns"): "storage device",
    (ev.IRQ_ENTRY, "cpu_ns"): "irq",
    (ev.BPF_HOOK_DISPATCH, "cpu_ns"): "bpf",
    (ev.CONTEXT_SWITCH, "cpu_ns"): "context switch",
    (ev.APP_PROCESS, "cpu_ns"): "application",
    (ev.NVME_RETRY, "backoff_ns"): "sleep",
    (ev.QOS_THROTTLE, "delay_ns"): "sleep",
}

CPU_WAIT = "cpu wait"
SLEEP = "sleep"
UNATTRIBUTED = "unattributed"
#: Layers that are not CPU work: no ``cpu wait`` is charged before them.
_OFF_CPU = frozenset(("sq wait", "storage device", SLEEP))

#: Table-1 layers in presentation order, then calibrated extras and waits.
LAYER_ORDER: List[str] = [
    "kernel crossing", "read syscall", "ext4", "bio", "NVMe driver",
    "storage device", "io_uring", "irq", "bpf", "context switch",
    "application", CPU_WAIT, "sq wait", SLEEP, UNATTRIBUTED,
]

#: The software layers a successful NVMe-hook chain hop never touches.
BYPASSED_BY_CHAIN: Tuple[str, ...] = ("kernel crossing", "read syscall",
                                      "ext4", "bio")


class Span:
    """One node of a per-operation span tree."""

    __slots__ = ("sid", "parent", "name", "start_ns", "end_ns", "attrs",
                 "children", "layers", "root", "cursor", "ledger")

    def __init__(self, sid: int, parent: int, name: str, start_ns: int,
                 attrs: Dict[str, Any]):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attrs = attrs
        self.children: List["Span"] = []
        #: ns claimed by events carrying this span's id, per layer.
        self.layers: Dict[str, int] = {}
        self.root = self
        #: Root only: the end of the claimed timeline, and once closed the
        #: whole tree's layers plus ``unattributed``.
        self.cursor = start_ns
        self.ledger: Optional[Dict[str, int]] = None

    @property
    def duration_ns(self) -> Optional[int]:
        if self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    def walk(self):
        """Yield this span and all descendants, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _add(layers: Dict[str, int], layer: str, ns: int) -> None:
    layers[layer] = layers.get(layer, 0) + ns


class SpanCollector:
    """Rebuilds span trees from bus events and keeps the layer ledger.

    Keeps the trees of the ``max_roots`` most recent root spans for
    rendering; an older tree is dropped once its ledger is summed.  With
    a ``registry`` the closed ledgers also feed the
    ``layer_cpu_ns_total`` counter.
    """

    def __init__(self, bus: TraceBus, max_roots: int = 256,
                 registry=None):
        self._fields_by_etype: Dict[str, List[Tuple[str, str]]] = {}
        for (etype, field), layer in ATTRIBUTION.items():
            self._fields_by_etype.setdefault(etype, []).append((field, layer))
        self.max_roots = max_roots
        self._kept: Dict[int, Span] = {}  # root id -> root, oldest first
        self._by_id: Dict[int, Span] = {}
        #: Closed roots per path, and their ledgers summed per path.
        self.ops: Dict[str, int] = {}
        self.totals: Dict[str, Dict[str, int]] = {}
        #: ns charged by events outside any operation (span 0), per path:
        #: io_uring's per-batch enter and reap, open/ioctl plumbing, the
        #: application's own work.
        self.outside: Dict[str, int] = {}
        #: ``chain_hop`` spans of closed chain roots, and their layers.
        self.hops = 0
        self.hop_layers: Dict[str, int] = {}
        #: Closed roots whose ledger has ``unattributed`` time.
        self.unattributed: List[Span] = []
        self._counter = (registry.counter(
            "layer_cpu_ns_total", "ns per layer of closed operations")
            if registry is not None else None)
        bus.subscribe(self._on_event)

    # -- event handling ----------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        if event.etype == SPAN_START:
            self._start(event)
        elif event.etype == SPAN_END:
            self._end(event)
        else:
            fields = self._fields_by_etype.get(event.etype)
            if fields is not None:
                self._charge(event, fields)

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
            span.root = parent.root
            return
        self._kept[sid] = span
        if len(self._kept) > self.max_roots:
            evicted = self._kept.pop(next(iter(self._kept)))
            if evicted.ledger is not None:
                self._forget(evicted)

    def _end(self, event: TraceEvent) -> None:
        span = self._by_id.get(event.get("span", 0))
        if span is None:
            return
        span.end_ns = event.ts
        for key, value in event.fields.items():
            if key != "span":
                span.attrs[key] = value
        if span.root is span:
            self._close(span)

    def _charge(self, event: TraceEvent, fields) -> None:
        sid = event.get("span", 0)
        if not sid:
            ns = sum(event.get(field, 0) for field, _layer in fields)
            if ns:
                _add(self.outside, event.get("path", "normal"), ns)
            return
        span = self._by_id.get(sid)
        if span is None or span.root.end_ns is not None:
            return
        root = span.root
        if fields[0][1] == SLEEP:
            begin = event.ts
        else:
            begin = event.ts - sum(event.get(field, 0)
                                   for field, _layer in fields)
        for field, layer in fields:
            ns = event.get(field, 0)
            if not ns:
                continue
            end = begin + ns
            cursor = root.cursor
            if begin > cursor and layer not in _OFF_CPU:
                _add(span.layers, CPU_WAIT, begin - cursor)
                cursor = begin
            if end > cursor:
                _add(span.layers, layer, end - max(cursor, begin))
                root.cursor = end
            begin = end

    def _close(self, root: Span) -> None:
        """Sum the closed root's tree into its ledger and the path totals."""
        ledger: Dict[str, int] = {}
        for node in root.walk():
            for layer, ns in node.layers.items():
                _add(ledger, layer, ns)
        missing = root.duration_ns - sum(ledger.values())
        if missing:
            ledger[UNATTRIBUTED] = missing
            self.unattributed.append(root)
        root.ledger = ledger
        path = root.attrs.get("path", "normal")
        _add(self.ops, path, 1)
        totals = self.totals.setdefault(path, {})
        for layer, ns in ledger.items():
            _add(totals, layer, ns)
            if self._counter is not None:
                self._counter.inc(ns, path=path, layer=layer)
        for hop in root.children:
            if hop.name == "chain_hop":
                self.hops += 1
                for layer, ns in hop.layers.items():
                    _add(self.hop_layers, layer, ns)
        if root.sid not in self._kept:
            self._forget(root)

    def _forget(self, root: Span) -> None:
        for node in root.walk():
            self._by_id.pop(node.sid, None)

    # -- queries -----------------------------------------------------------

    def mean(self, path: str) -> Dict[str, float]:
        """Mean ns per closed ``path`` operation of every layer it charged,
        plus ``total`` (the mean latency)."""
        ops = self.ops[path]
        totals = self.totals[path]
        mean = {layer: ns / ops for layer, ns in totals.items()}
        mean["total"] = sum(totals.values()) / ops
        return mean

    @property
    def roots(self) -> List[Span]:
        """The kept root spans, oldest first."""
        return list(self._kept.values())

    def find_roots(self, name: Optional[str] = None) -> List[Span]:
        """Kept root spans, optionally filtered by span name."""
        return [s for s in self.roots if name is None or s.name == name]

    def ledger_rows(self) -> List[Dict[str, str]]:
        """The ledger table: one row per layer, one column per path (mean
        ns per closed operation), then ``total``."""
        paths = sorted(self.ops)
        means = {path: self.mean(path) for path in paths}
        rows = [dict(layer="ops", **{path: str(self.ops[path])
                                     for path in paths})]
        for layer in LAYER_ORDER + ["total"]:
            if layer in (UNATTRIBUTED, "total") or \
                    any(layer in means[path] for path in paths):
                rows.append(dict(layer=layer, **{
                    path: f"{means[path].get(layer, 0):.0f}"
                    for path in paths}))
        return rows

    def bypass_line(self) -> Optional[str]:
        """Which software layers no chain hop charged (None: no chains)."""
        chains = self.ops.get("chain", 0)
        if not chains:
            return None
        skipped = [layer for layer in BYPASSED_BY_CHAIN
                   if not self.hop_layers.get(layer)]
        return (f"chain bypass: {chains} chained I/Os, {self.hops} hops "
                f"({self.hops - chains} recycled in IRQ context); "
                f"recycled hops skip: {', '.join(skipped) or 'nothing'}")

    # -- rendering ---------------------------------------------------------

    def render_span(self, span: Span, indent: int = 0) -> List[str]:
        """Flamegraph-style text lines for one span tree: a closed root
        shows its ledger, every other span the ns its own events
        claimed."""
        pad = "  " * indent
        end = span.end_ns if span.end_ns is not None else "?"
        attr_str = " ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
        layers = span.ledger if span.ledger is not None else span.layers
        layer_str = ", ".join(f"{layer} {ns}" for layer, ns in
                              sorted(layers.items(),
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
