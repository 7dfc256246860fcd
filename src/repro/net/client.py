"""The remote client: plain RPC I/O plus the two B-tree GET strategies.

:class:`RemoteClient` wraps a :class:`~repro.net.transport.Connection`
and turns the wire ops into a storage API.  Its centrepiece is
:meth:`remote_btree_get`, which answers one key lookup two ways:

* **naive** — one READ RPC per B-tree hop: fetch the root page, parse
  it client-side, fetch the child, and so on.  A depth-``k`` tree pays
  the network round trip ``k`` times, which is the disaggregated
  analogue of the paper's per-hop kernel-crossing tax.
* **pushdown** — one EXEC_CHAIN RPC: the previously installed (and
  target-re-verified) traversal program walks the tree inside the
  target's NVMe completion path, and only the answer crosses the
  network.  The round trip is paid once, so at high RTT the speedup
  approaches the hop count — BPF-oF's headline shape.

Every method is a generator meant to run inside the simulation;
failures surface as the typed errors of :mod:`repro.errors`
(:class:`~repro.errors.RemoteError` refusals,
:class:`~repro.errors.RpcTimeout` when retransmissions are exhausted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.core import Hook
from repro.ebpf import Program
from repro.net import wire
from repro.net.transport import Connection
from repro.structures.pages import PAGE_SIZE, decode_page, search_page

__all__ = ["MAX_QOS_RETRIES", "RemoteChainResult", "RemoteClient",
           "RemoteCompactResult"]

#: EAGAIN backpressure: how many times a client sleeps and retries a
#: refused RPC before surfacing :class:`~repro.errors.QosRejected`.
MAX_QOS_RETRIES = 8


@dataclass(frozen=True)
class RemoteChainResult:
    """An EXEC_CHAIN reply: the target-side chain outcome, unwrapped."""

    status: str
    hops: int
    value: Optional[int]
    value2: Optional[int]
    data: bytes

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RemoteCompactResult:
    """A COMPACT reply plus client-side boundary accounting."""

    emitted: int
    dropped: int
    output_entries: int
    output_bytes: int
    chain_hops: int
    #: Bytes this RPC moved across the network, both directions
    #: (request + reply frames).  The whole point of the op: the merged
    #: pages themselves never cross.
    net_bytes: int


class RemoteClient:
    """A storage client talking to one :class:`StorageTarget`."""

    def __init__(self, connection: Connection):
        self.connection = connection
        #: Backoffs actually taken (for tests/metrics).
        self.qos_backoffs = 0
        #: Request + reply frame bytes of the most recently completed
        #: :meth:`rpc` (its final attempt), both directions.
        self.last_wire_bytes = 0

    def rpc(self, op: int, *fields):
        """One typed RPC (generator): request fields in, reply fields out.

        ``fields`` and the returned tuple follow the op's row in
        :data:`repro.net.wire.OPS`.  A refusal raises its typed error.
        An EAGAIN refusal carries the target's simulated-time
        ``retry_after_ns``; the client sleeps exactly that long and
        retries, so the same seed replays the same backoff schedule.
        After :data:`MAX_QOS_RETRIES` refusals the typed
        :class:`~repro.errors.QosRejected` propagates to the caller.
        """
        row = wire.OPS[op]
        body = wire.encode_body(row.request, fields)
        refusals = 0
        while True:
            status, reply = yield from self.connection.call(op, body)
            if (status == wire.STATUS_EAGAIN
                    and refusals < MAX_QOS_RETRIES):
                refusals += 1
                self.qos_backoffs += 1
                retry_after_ns = wire.decode_body(wire.QOS_REJECT, reply)[0]
                yield self.connection.sim.timeout(max(1, retry_after_ns))
                continue
            wire.raise_for_status(status, reply)
            self.last_wire_bytes = (len(body) + len(reply) +
                                    2 * wire.FRAME_OVERHEAD)
            return wire.decode_body(row.reply, reply)

    # ------------------------------------------------------------------
    # Plain remote I/O
    # ------------------------------------------------------------------

    def read(self, path: str, offset: int, length: int):
        """Remote ``pread`` (generator returning the data bytes)."""
        (data,) = yield from self.rpc(wire.OP_READ, path, offset, length)
        return data

    # ------------------------------------------------------------------
    # Chain pushdown
    # ------------------------------------------------------------------

    def install_chain(self, path: str, program: Program,
                      hook: Union[Hook, str] = Hook.NVME,
                      block_size: int = PAGE_SIZE, scratch_size: int = 256):
        """Ship ``program`` to the target for re-verification + install.

        Generator returning the target-assigned chain id.  Raises
        :class:`~repro.errors.RemoteVerifierRejected` if the target's
        verifier refuses the program.
        """
        hook_name = hook.value if isinstance(hook, Hook) else hook
        (chain_id,) = yield from self.rpc(
            wire.OP_INSTALL_CHAIN, path, hook_name, block_size,
            scratch_size, program.name, list(program.instructions))
        return chain_id

    def exec_chain(self, chain_id: int, offset: int,
                   length: int = PAGE_SIZE, args: Tuple[int, ...] = ()):
        """Run an installed chain on the target (generator)."""
        chain_status, hops, (value, value2), data = yield from self.rpc(
            wire.OP_EXEC_CHAIN, chain_id, offset, length, args)
        return RemoteChainResult(chain_status, hops, value, value2, data)

    # ------------------------------------------------------------------
    # Remote compaction offload
    # ------------------------------------------------------------------

    def compact(self, output_path: str, input_paths,
                drop_tombstones: bool = False):
        """Run a whole LSM compaction on the target (one RPC).

        ``input_paths`` must be ordered oldest first (the merge fold
        order — :meth:`~repro.structures.CompactionPlan.input_paths`).
        Generator returning a :class:`RemoteCompactResult`; its
        ``net_bytes`` counts both frames, which is the *entire* network
        cost of the compaction — versus a client-side compaction that
        READs every page up and WRITEs the merged table back.
        """
        reply = yield from self.rpc(wire.OP_COMPACT, output_path,
                                    drop_tombstones, list(input_paths))
        # Nothing yields between rpc's return and here, so the sizes
        # are this call's even with other RPCs in flight.
        return RemoteCompactResult(*reply, self.last_wire_bytes)

    # ------------------------------------------------------------------
    # The two GET strategies
    # ------------------------------------------------------------------

    def remote_btree_get(self, key: int, *, mode: str,
                         path: Optional[str] = None,
                         root_offset: int = 0,
                         chain_id: Optional[int] = None):
        """Look up ``key`` remotely; returns ``(value, found, rpc_hops)``.

        ``mode="naive"`` needs ``path`` (+ ``root_offset``) and issues
        one READ per level; ``mode="pushdown"`` needs ``chain_id`` from
        a prior :meth:`install_chain` and issues a single EXEC_CHAIN.
        """
        if mode == "naive":
            if path is None:
                raise ValueError("naive mode needs path")
            result = yield from self._naive_get(path, root_offset, key)
            return result
        if mode == "pushdown":
            if chain_id is None:
                raise ValueError("pushdown mode needs chain_id")
            result = yield from self._pushdown_get(chain_id, root_offset,
                                                   key)
            return result
        raise ValueError(f"unknown mode {mode!r}")

    def _naive_get(self, path: str, root_offset: int, key: int):
        offset = root_offset
        rpcs = 0
        while True:
            page = yield from self.read(path, offset, PAGE_SIZE)
            rpcs += 1
            _magic, level, entries = decode_page(page)
            index, value = search_page(page, key)
            if level > 0:
                if value is None:
                    return None, False, rpcs
                offset = value
                continue
            found = index >= 0 and entries[index][0] == key
            return (value if found else None), found, rpcs

    def _pushdown_get(self, chain_id: int, root_offset: int, key: int):
        result = yield from self.exec_chain(chain_id, root_offset,
                                            PAGE_SIZE, args=(key,))
        found = result.ok and result.value2 == 1
        return (result.value if found else None), found, 1
