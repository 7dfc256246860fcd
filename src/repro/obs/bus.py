"""Zero-dependency pub/sub tracepoint bus.

The :class:`TraceBus` is the spine of the observability layer: every
instrumented call site does ``if bus.enabled: bus.emit(...)`` (a span
site, ``if span:``) so a disabled bus costs a single attribute check
and no call: ``tests/test_registry.py`` counts the calls every
experiment row makes on a disabled bus and pins them at zero.
Subscribers register per event
type or as wildcards and receive :class:`~repro.obs.events.TraceEvent`
records synchronously, in subscription order, which keeps traces
deterministic under the single-threaded simulation engine.

A module-level *default bus* lets the CLI observe experiments that
construct their own :class:`~repro.kernel.kernel.Kernel` instances:
``set_default_bus`` installs an enabled bus for the duration of a run
and every Kernel built without an explicit ``bus`` picks it up.  The
default default is :data:`NULL_BUS`, a permanently disabled bus.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.obs.events import SPAN_END, SPAN_START, TraceEvent

__all__ = ["NULL_BUS", "TraceBus", "get_default_bus", "set_default_bus"]

Handler = Callable[[TraceEvent], None]


class TraceBus:
    """Synchronous pub/sub bus for typed tracepoint events.

    ``enabled`` is a plain attribute so instrumented hot paths can guard
    emission with a single load.  ``emit`` stamps nothing itself — the
    caller passes simulated time — so events are a pure function of the
    workload.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._subs: Dict[str, List[Handler]] = {}
        self._all_subs: List[Handler] = []
        self._next_span = 0
        self.events_emitted = 0

    # -- subscription ------------------------------------------------------

    def subscribe(self, handler: Handler, etype: Optional[str] = None) -> Handler:
        """Register ``handler`` for ``etype`` (or all events when None)."""
        if etype is None:
            self._all_subs.append(handler)
        else:
            self._subs.setdefault(etype, []).append(handler)
        return handler

    # -- emission ----------------------------------------------------------

    def emit(self, etype: str, ts: int, **fields: Any) -> None:
        """Publish one event at simulated time ``ts``.

        Returns immediately when the bus is disabled; otherwise dispatches
        synchronously to type-specific subscribers first, then wildcards.
        """
        if not self.enabled:
            return
        event = TraceEvent(ts, etype, fields)
        self.events_emitted += 1
        for handler in self._subs.get(etype, ()):
            handler(event)
        for handler in self._all_subs:
            handler(event)

    # -- spans -------------------------------------------------------------

    def span_start(self, name: str, ts: int, parent: int = 0, **attrs: Any) -> int:
        """Open a span and return its id (0 when the bus is disabled).

        Span ids come from a per-bus counter, so they are deterministic
        for a given workload and seed.
        """
        if not self.enabled:
            return 0
        self._next_span += 1
        sid = self._next_span
        self.emit(SPAN_START, ts, span=sid, parent=parent, name=name, **attrs)
        return sid

    def span_end(self, sid: int, ts: int, **attrs: Any) -> None:
        """Close span ``sid``; no-op when disabled or ``sid`` is 0."""
        if not self.enabled or sid == 0:
            return
        self.emit(SPAN_END, ts, span=sid, **attrs)


#: Permanently disabled bus used when tracing is off.
NULL_BUS = TraceBus(enabled=False)

_default_bus: TraceBus = NULL_BUS


def get_default_bus() -> TraceBus:
    """Return the process-wide default bus (NULL_BUS unless overridden)."""
    return _default_bus


def set_default_bus(bus: TraceBus) -> TraceBus:
    """Install ``bus`` as the default; returns the previous default."""
    global _default_bus
    previous = _default_bus
    _default_bus = bus
    return previous
