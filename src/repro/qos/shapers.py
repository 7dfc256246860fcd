"""Deterministic traffic shapers: token buckets and weighted-fair queues.

Both shapers are pure integer arithmetic over *simulated* nanoseconds —
no wall clock, no randomness — so a seeded run with QoS enabled is
byte-identical on every replay.  Rates are fixed-point with one token =
``SCALE`` units; at ``SCALE = 1_000_000`` a rate of "tokens per
millisecond" is exactly "units per nanosecond", which keeps every refill
computation a single multiply.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import InvalidArgument

__all__ = ["SCALE", "TokenBucket", "WfqScheduler"]

#: Fixed-point scale: 1 token = SCALE units; tokens/ms = units/ns.
SCALE = 1_000_000


class TokenBucket:
    """A deterministic token bucket over simulated time.

    ``take`` is admission-style: it either grants (consuming tokens) or
    refuses *without* consuming, returning the exact simulated-time
    delay after which the same request would succeed — the
    ``retry_after_ns`` carried by typed backpressure.  ``pace`` is
    throttle-style: it always consumes (the level may go negative) and
    returns how long the caller must sleep to stay within rate — work is
    delayed, never dropped.
    """

    def __init__(self, tokens_per_ms: int, burst: int, now_ns: int = 0):
        if tokens_per_ms < 1:
            raise InvalidArgument("tokens_per_ms must be >= 1")
        if burst < 1:
            raise InvalidArgument("burst must be >= 1")
        self.rate = tokens_per_ms  # units per nanosecond (see SCALE)
        self.capacity = burst * SCALE
        self.level = self.capacity
        self.last_ns = now_ns

    def _advance(self, now_ns: int) -> None:
        if now_ns > self.last_ns:
            self.level = min(self.capacity,
                             self.level + (now_ns - self.last_ns) * self.rate)
            self.last_ns = now_ns

    def take(self, now_ns: int, tokens: int = 1) -> int:
        """Try to draw ``tokens``; 0 if granted, else ``retry_after_ns``."""
        self._advance(now_ns)
        need = tokens * SCALE
        if self.level >= need:
            self.level -= need
            return 0
        deficit = need - self.level
        return -(-deficit // self.rate)  # ceil division

    def pace(self, now_ns: int, tokens: int = 1) -> int:
        """Draw ``tokens`` unconditionally; ns the caller must sleep."""
        self._advance(now_ns)
        self.level -= tokens * SCALE
        if self.level >= 0:
            return 0
        return -(-(-self.level) // self.rate)  # ceil(-level / rate)


class WfqScheduler:
    """Start-time-fair weighted queueing over opaque items.

    Classic SFQ: each arrival is stamped with a virtual start (the max
    of the scheduler's virtual time and the flow's previous finish) and
    a virtual finish (``start + cost/weight``); dispatch always picks
    the minimum finish tag, and virtual time advances to the dispatched
    item's start.  Backlogged flows therefore share capacity in
    proportion to their weights, while the scheduler stays
    work-conserving — an idle flow's share is redistributed, never
    reserved.  Ties break on a monotone arrival sequence number, so the
    dispatch order is a deterministic function of the arrival order.
    """

    def __init__(self, weight_of: Callable[[Optional[str]], int]):
        self.weight_of = weight_of
        self._heap: List[Tuple[int, int, int, Optional[str], Any]] = []
        self._finish: Dict[Optional[str], int] = {}
        self._vtime = 0
        self._seq = 0
        #: Queued items per flow key (for depth observability).
        self.key_depth: Dict[Optional[str], int] = {}

    def push(self, key: Optional[str], item: Any, cost: int = 1) -> int:
        """Enqueue ``item`` for flow ``key``; returns the flow's depth."""
        weight = max(1, self.weight_of(key))
        start = max(self._vtime, self._finish.get(key, 0))
        finish = start + (max(1, cost) * SCALE) // weight
        self._finish[key] = finish
        self._seq += 1
        heapq.heappush(self._heap, (finish, self._seq, start, key, item))
        depth = self.key_depth.get(key, 0) + 1
        self.key_depth[key] = depth
        return depth

    def pop(self) -> Tuple[Optional[str], Any]:
        """Dequeue the item with the minimum virtual finish tag."""
        finish, _seq, start, key, item = heapq.heappop(self._heap)
        if start > self._vtime:
            self._vtime = start
        depth = self.key_depth.get(key, 1) - 1
        if depth:
            self.key_depth[key] = depth
        else:
            self.key_depth.pop(key, None)
        return key, item
