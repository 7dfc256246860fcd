"""RPC transport: connections, request ids, windows, retry, and dedup.

A :class:`Connection` is one client's point-to-point session with a
storage target: two unidirectional fabric links (``c2s`` requests,
``s2c`` replies), a client-side reply handler matching each reply to
its pending request id as it arrives, and a bounded *in-flight window*
(a one-per-slot :class:`~repro.sim.resources.Resource`) so a client
can never have more than ``window`` RPCs outstanding — the
flow-control half of a credit scheme.

Reliability is end-to-end, client-driven:

* :meth:`Connection.call` retransmits after ``timeout_ns`` with
  exponential backoff, reusing the *same request id* every attempt.
* The target side (:meth:`Connection.serve`) keeps a bounded cache of
  encoded replies keyed by request id.  A retransmitted request whose
  original was already executed is answered from the cache — the op is
  **not** executed twice, which is what makes non-idempotent ops
  (INSTALL_CHAIN, PUT, COMPACT, chains with side effects) safe under loss.
* A reply that arrives after the client gave up (or after a duplicate
  reply) is dropped by the reply handler.

Everything is emitted to the trace bus as ``net_rpc_send`` /
``net_rpc_recv`` / ``net_retry`` events, all behind the
``bus.enabled`` no-op guard.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import FramingError, InvalidArgument, RpcTimeout
from repro.net.fabric import NetworkFabric
from repro.net.wire import OP_NAMES, REPLY, decode_frame, encode_frame
from repro.obs import events as obs_events
from repro.sim import Event, Store, exponential_backoff_ns
from repro.sim.engine import AnyOf
from repro.sim.resources import Resource

__all__ = ["Connection"]


class Connection:
    """One client's RPC session with a target, over two fabric links."""

    def __init__(self, fabric: NetworkFabric, name: str, window: int = 8,
                 timeout_ns: int = 400_000, max_retries: int = 8,
                 backoff_ns: int = 25_000, dedup_capacity: int = 256):
        if window < 1:
            raise InvalidArgument("window must be >= 1")
        if max_retries < 0 or timeout_ns <= 0 or backoff_ns <= 0:
            raise InvalidArgument("bad retry policy")
        self.fabric = fabric
        self.sim = fabric.sim
        self.bus = fabric.bus
        self.name = name
        self.timeout_ns = timeout_ns
        self.max_retries = max_retries
        self.backoff_ns = backoff_ns
        self.dedup_capacity = dedup_capacity
        self.c2s = fabric.new_link(f"{name}/c2s")
        self.s2c = fabric.new_link(f"{name}/s2c")
        self._server_rx: Store = Store(self.sim, name=f"{name}/server-rx")
        self.c2s.deliver = self._server_rx.put
        self.s2c.deliver = self._on_reply
        self.window = Resource(self.sim, window, name=f"{name}/window")
        self._pending: Dict[int, Event] = {}
        self._next_id = 1
        #: Target-side reply cache: request id -> encoded reply frame.
        #: Evicted in least-recently-*used* order: a dedup hit moves the
        #: entry back to the tail, so a request id the client is still
        #: retransmitting cannot be displaced by newer traffic while a
        #: colder id remains cached (insertion-order eviction broke
        #: exactly-once under small ``dedup_capacity``).
        self._replies: Dict[int, bytes] = {}
        # -- plain counters (maintained with or without a bus) ----------
        self.rpcs_sent: Dict[str, int] = {}
        self.retries = 0
        self.stale_replies = 0
        self.dedup_hits = 0
        self.dedup_evictions = 0
        self.dropped_requests = 0
        self.bad_frames = 0
        self.max_inflight = 0

    # ------------------------------------------------------------------
    # Client side
    # ------------------------------------------------------------------

    def call(self, op: int, body: bytes = b""):
        """One RPC (generator): returns ``(status, reply_body)``.

        Blocks for a window slot, then transmits and retransmits (same
        request id, exponential backoff) until a reply arrives or the
        retry budget is spent, in which case :class:`RpcTimeout` is
        raised.
        """
        slot = self.window.request()
        yield slot
        self.max_inflight = max(self.max_inflight, self.window.in_use)
        try:
            result = yield from self._call_locked(op, body)
            return result
        finally:
            self.window.release(slot)

    def _call_locked(self, op: int, body: bytes):
        sim = self.sim
        request_id = self._next_id
        self._next_id += 1
        op_name = OP_NAMES[op]
        reply_event = Event(sim)
        self._pending[request_id] = reply_event
        frame = encode_frame(op, request_id, body)
        attempt = 1
        while True:
            self.rpcs_sent[op_name] = self.rpcs_sent.get(op_name, 0) + 1
            if self.bus.enabled:
                self.bus.emit(obs_events.NET_RPC_SEND, sim.now, op=op_name,
                              request_id=request_id, bytes=len(frame),
                              side="client", attempt=attempt,
                              inflight=len(self._pending))
            self.fabric.transmit(self.c2s, frame, request_id=request_id)
            yield AnyOf(sim, [reply_event, sim.timeout(self.timeout_ns)])
            if reply_event.triggered:
                status, reply_body = reply_event.value
                return status, reply_body
            if attempt > self.max_retries:
                self._pending.pop(request_id, None)
                raise RpcTimeout(op=op_name, request_id=request_id,
                                 attempts=attempt,
                                 timeout_ns=self.timeout_ns)
            backoff = exponential_backoff_ns(self.backoff_ns, attempt)
            self.retries += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.NET_RETRY, sim.now, op=op_name,
                              request_id=request_id, attempt=attempt,
                              backoff_ns=backoff)
            yield sim.timeout(backoff)
            attempt += 1

    def _on_reply(self, frame: bytes) -> None:
        """Match a reply frame to its pending call; drop stale duplicates."""
        try:
            op, status, request_id, body = decode_frame(frame)
        except FramingError:
            self.bad_frames += 1
            return
        event = self._pending.pop(request_id, None)
        if event is None:
            # The call gave up, or a duplicate reply already won.
            self.stale_replies += 1
            return
        if self.bus.enabled:
            self.bus.emit(obs_events.NET_RPC_RECV, self.sim.now,
                          op=OP_NAMES.get(op & ~REPLY, "?"),
                          request_id=request_id, bytes=len(frame),
                          side="client", dup=False,
                          inflight=len(self._pending))
        event.succeed((status, body))

    # ------------------------------------------------------------------
    # Target side
    # ------------------------------------------------------------------

    def serve(self, handler) -> None:
        """Start the per-connection service loop (target side).

        ``handler(op, body)`` is a generator returning ``(status,
        reply_body)``; it runs inline, so one connection serves one
        request at a time and a retransmission queued behind the
        original execution is answered from the dedup cache.  A handler
        may instead return ``None`` to drop the request silently — no
        reply, nothing cached — which is how a crashed storage target
        goes dark (the client's recovery is its retransmission timeout,
        exactly as with a dead machine).
        """
        self.sim.spawn(self._serve_loop(handler), name=f"{self.name}/serve")

    def _serve_loop(self, handler):
        while True:
            frame = yield self._server_rx.get()
            try:
                op, _status, request_id, body = decode_frame(frame)
            except FramingError:
                self.bad_frames += 1
                continue
            op_name = OP_NAMES.get(op & ~REPLY, "?")
            cached = self._replies.get(request_id)
            if self.bus.enabled:
                self.bus.emit(obs_events.NET_RPC_RECV, self.sim.now,
                              op=op_name, request_id=request_id,
                              bytes=len(frame), side="target",
                              dup=cached is not None)
            if cached is not None:
                self.dedup_hits += 1
                # LRU touch: the client is clearly still retransmitting
                # this id, so keep its reply alive ahead of colder ones.
                del self._replies[request_id]
                self._replies[request_id] = cached
                self._send_reply(op_name, request_id, cached)
                continue
            result = yield from handler(op, body)
            if result is None:
                self.dropped_requests += 1
                continue
            status, reply_body = result
            reply = encode_frame(op | REPLY, request_id, reply_body,
                                 status=status)
            self._replies[request_id] = reply
            while len(self._replies) > self.dedup_capacity:
                self._replies.pop(next(iter(self._replies)))
                self.dedup_evictions += 1
            self._send_reply(op_name, request_id, reply)

    def _send_reply(self, op_name: str, request_id: int,
                    reply: bytes) -> None:
        if self.bus.enabled:
            self.bus.emit(obs_events.NET_RPC_SEND, self.sim.now, op=op_name,
                          request_id=request_id, bytes=len(reply),
                          side="target", attempt=1,
                          inflight=len(self._pending))
        self.fabric.transmit(self.s2c, reply, request_id=request_id)
