"""Disaggregated storage over a simulated network (the BPF-oF shape).

The paper's successor work pushes the HotOS vision across a network:
when the storage sits behind a NIC, a B-tree traversal that makes one
round trip per pointer hop pays the network latency k times, while
pushing the verified BPF chain to the target pays it once.  This
package reproduces that shape on top of the existing chain engine:

* :mod:`~repro.net.fabric` — :class:`NetworkFabric`, a latency and
  serialization model on the discrete-event simulator in which each
  link delivers in send order, with fault-plan drop/delay episodes.
* :mod:`~repro.net.wire` — length-prefixed frames and the op table
  (each of the eight ops declared once; both body codecs derive from
  it); programs cross the wire in the real 8-byte eBPF slot encoding.
* :mod:`~repro.net.transport` — :class:`Connection`: request ids,
  bounded in-flight windows, client retransmission with backoff, and
  the target's idempotent request-id dedup cache.
* :mod:`~repro.net.target` — :class:`StorageTarget`: a simulated
  kernel serving READ / WRITE / INSTALL_CHAIN (with server-side
  re-verification of untrusted client programs) / EXEC_CHAIN / COMPACT;
  PUT / GET / REPLICATE are served by the cluster's target subclass.
* :mod:`~repro.net.client` — :class:`RemoteClient`: one typed
  ``rpc(op, *fields)`` call, plain remote I/O and compaction stubs
  over it, plus ``remote_btree_get`` in naive (RPC-per-hop) and
  pushdown (single EXEC_CHAIN) modes.

See ``docs/networking.md`` for the full protocol and fault semantics.
"""

from repro.net.client import (
    RemoteChainResult,
    RemoteClient,
    RemoteCompactResult,
)
from repro.net.fabric import Link, NetConfig, NetworkFabric
from repro.net.target import StorageTarget
from repro.net.transport import Connection

__all__ = [
    "Connection",
    "Link",
    "NetConfig",
    "NetworkFabric",
    "RemoteChainResult",
    "RemoteClient",
    "RemoteCompactResult",
    "StorageTarget",
]
