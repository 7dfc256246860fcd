"""The storage target: a simulated kernel served over the network.

:class:`StorageTarget` owns one :class:`~repro.kernel.kernel.Kernel`
(cores, file system, NVMe device) plus a
:class:`~repro.core.api.StorageBpf` facade, and serves four of the
seven ops of :data:`repro.net.wire.OPS` per attached connection (the
cluster's :class:`~repro.cluster.cluster.ClusterTarget` serves the other
three, PUT / GET / REPLICATE; an op this class has no ``_op_<name>``
handler for is refused with ``EBADMSG``):

* **READ** — plain ``pread`` against a path (the target opens
  descriptors lazily and caches them per client).
* **INSTALL_CHAIN** — decode the program from its wire encoding and
  **re-verify it server-side** with the target's own
  :func:`repro.ebpf.verifier.verify` before installing it at the
  requested hook.  This mirrors BPF-oF: the client is untrusted; a
  program the verifier rejects is refused with a typed ``EVERIFY``
  reply (reason included) and the target keeps serving.
* **EXEC_CHAIN** — run an installed chain through
  :meth:`~repro.core.api.StorageBpf.read_chain_robust`, i.e. the full
  §4 NVMe-hook resubmission machinery, and return the chain result in
  one reply.  This is the pushdown path: a k-hop B-tree descent costs
  one network round trip instead of k.
* **COMPACT** — merge named SSTable runs server-side through the
  offloaded compaction engine; only counters cross the network.

Each client connection gets its own kernel process, so the per-pid
resubmission accounting and fairness bounds of
:mod:`repro.core.accounting` apply per client: one greedy remote chain
cannot starve the rest — exactly the exokernel-style isolation argument,
now across the wire.

The client is untrusted.  Every request body is decoded in one place
(:meth:`StorageTarget._handle`), and nothing a client sends crashes the
target: malformed bodies are refused with ``EBADMSG``, unusable field
values with ``EINVAL``, and kernel and BPF errors are mapped to
errno-style reply statuses via their ``errno_name``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core import Hook, StorageBpf
from repro.core.hooks import storage_ctx_layout
from repro.device import LatencyModel
from repro.device.latency import NVM_GEN2
from repro.ebpf import Program
from repro.errors import (
    FramingError,
    InvalidArgument,
    QosRejected,
    ReproError,
    VerifierError,
)
from repro.kernel import Kernel, KernelConfig
from repro.net import wire
from repro.net.client import RemoteClient
from repro.net.fabric import NetworkFabric
from repro.net.transport import Connection
from repro.sim import Simulator

__all__ = ["StorageTarget"]


class _ClientState:
    """Per-connection server state: process, fd cache, installed chains."""

    def __init__(self, proc):
        self.proc = proc
        self.fds: Dict[str, int] = {}
        self.chains: Dict[int, int] = {}


class StorageTarget:
    """One disaggregated storage server around a simulated kernel."""

    def __init__(self, sim: Simulator, model: Optional[LatencyModel] = None,
                 config: Optional[KernelConfig] = None):
        self.sim = sim
        self.kernel = Kernel(sim, model or NVM_GEN2, config)
        self.bpf = StorageBpf(self.kernel)
        self._clients: Dict[str, _ClientState] = {}
        self._next_chain_id = 1
        #: Ops actually executed (dedup-cache hits excluded), by op name.
        self.executed: Dict[str, int] = {}
        #: Refusals sent, by errno-style status name.
        self.refused: Dict[str, int] = {}
        self._compactor = None

    @property
    def _compaction_engine(self):
        """The lazily-built server-side compaction engine (verify-once).

        Imported lazily: repro.net must stay importable without pulling
        the compaction stack in for targets that never see OP_COMPACT.
        """
        if self._compactor is None:
            from repro.compact import CompactionEngine
            self._compactor = CompactionEngine(self.bpf)
        return self._compactor

    @property
    def accounting(self):
        """The per-client (per-pid) chain accounting shared with the bpf."""
        return self.bpf.accounting

    def create_file(self, path: str, data: bytes) -> None:
        """Populate the target's file system without simulated time."""
        self.kernel.create_file(path, data)

    def attach(self, connection: Connection, tenant=None) -> None:
        """Serve RPCs arriving on ``connection`` (one process per client).

        ``tenant`` names the :class:`~repro.qos.Tenant` the connection's
        process bills to (a name or a ``Tenant``).  When the kernel has
        QoS armed and no tenant is given, the connection name becomes
        the tenant, so every remote client is isolated by default; pass
        ``tenant=""`` for infrastructure connections (replication,
        control) that must bill to the system share instead.
        """
        if connection.name in self._clients:
            raise InvalidArgument(
                f"client {connection.name!r} already attached")
        if tenant == "":
            tenant = None
        elif tenant is None and self.kernel.qos is not None:
            tenant = connection.name
        proc = self.kernel.spawn_process(f"net-{connection.name}",
                                         tenant=tenant)
        state = _ClientState(proc)
        self._clients[connection.name] = state
        connection.serve(lambda op, body: self._handle(state, op, body))

    def connect(self, fabric: NetworkFabric, name: str, tenant=None,
                **conn_kwargs) -> RemoteClient:
        """Open connection ``name`` over ``fabric``, :meth:`attach` it
        (same ``tenant`` rules) and return its client.

        ``conn_kwargs`` go to :class:`~repro.net.transport.Connection`
        (window, timeout and retry policy).
        """
        connection = Connection(fabric, name, **conn_kwargs)
        self.attach(connection, tenant=tenant)
        return RemoteClient(connection)

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _handle(self, state: _ClientState, op: int, body: bytes):
        """Decode, execute, and encode one request (generator).

        The one place an untrusted request body is parsed.  The op's
        row of :data:`repro.net.wire.OPS` names the handler
        (``_op_<name>``, taking the decoded request fields and returning
        the reply fields) and both layouts; a malformed body, a bad
        field value and a handler failure all leave through the same
        typed-refusal mapping, so the connection keeps serving.
        """
        qos = self.kernel.qos
        if qos is not None:
            tenant = self.kernel.tenant_of(state.proc)
            retry_after_ns = qos.admit(tenant)
            if retry_after_ns:
                return self._refuse(QosRejected(
                    retry_after_ns=retry_after_ns, tenant=tenant or ""))
        # ``op`` is the raw byte off the wire: the envelope check lets a
        # request with the REPLY bit set through, so look it up safely.
        row = wire.OPS.get(op)
        handler = row and getattr(self, f"_op_{row.name}", None)
        try:
            if handler is None:
                raise FramingError(f"unknown op {op}")
            fields = wire.decode_body(row.request, body)
            reply = wire.encode_body(
                row.reply, (yield from handler(state, *fields)))
        except ReproError as error:
            return self._refuse(error)
        self.executed[row.name] = self.executed.get(row.name, 0) + 1
        return wire.STATUS_OK, reply

    def _refuse(self, error: ReproError):
        """Map one typed error to its refusal reply ``(status, body)``.

        The body is the UTF-8 reason, except for EAGAIN, which carries
        the structured :data:`~repro.net.wire.QOS_REJECT` retry-after.
        """
        if isinstance(error, VerifierError):
            errno_name, body = "EVERIFY", error.reason.encode("utf-8")
        elif isinstance(error, QosRejected):
            errno_name, body = "EAGAIN", wire.encode_body(
                wire.QOS_REJECT,
                (error.retry_after_ns, error.tenant, str(error)))
        else:
            errno_name = getattr(error, "errno_name", "EREMOTE")
            body = str(error).encode("utf-8")
        self.refused[errno_name] = self.refused.get(errno_name, 0) + 1
        return wire.status_for_errno(errno_name), body

    def _fd_for(self, state: _ClientState, path: str):
        fd = state.fds.get(path)
        if fd is None:
            fd = yield from self.kernel.sys_open(state.proc, path)
            state.fds[path] = fd
        return fd

    # -- ops -------------------------------------------------------------

    def _op_read(self, state: _ClientState, path: str, offset: int,
                 length: int):
        fd = yield from self._fd_for(state, path)
        result = yield from self.kernel.sys_pread(state.proc, fd, offset,
                                                  length)
        return (result.data,)

    def _op_install_chain(self, state: _ClientState, path: str,
                          hook_name: str, block_size: int,
                          scratch_size: int, program_name: str,
                          instructions):
        try:
            hook = Hook(hook_name)
        except ValueError:
            raise InvalidArgument(f"unknown hook {hook_name!r}") from None
        # The wire carries raw instructions; rebuild the Program against
        # the *target's* context layout and re-verify before attaching.
        # An unsafe program is refused here — never executed.
        program = Program(instructions,
                          storage_ctx_layout(block_size, scratch_size),
                          name=program_name)
        self.bpf.verify_program(program)
        fd = yield from self.kernel.sys_open(state.proc, path)
        yield from self.bpf.install(state.proc, fd, program, hook=hook,
                                    block_size=block_size,
                                    scratch_size=scratch_size)
        chain_id = self._next_chain_id
        self._next_chain_id += 1
        state.chains[chain_id] = fd
        return (chain_id,)

    def _op_exec_chain(self, state: _ClientState, chain_id: int,
                       offset: int, length: int, args):
        fd = state.chains.get(chain_id)
        if fd is None:
            raise InvalidArgument(f"unknown chain id {chain_id}")
        result = yield from self.bpf.read_chain_robust(
            state.proc, fd, offset, length, args=args)
        return (result.status.value, result.hops,
                (result.value, result.value2), result.data)

    def _op_compact(self, state: _ClientState, output_path: str,
                    drop_tombstones: bool, input_paths):
        """Run a whole LSM compaction server-side (one RPC, zero pages
        on the wire): merge the named input runs through the offloaded
        chain engine and write the output table locally.  The caller
        owns the level swap/unlinks, so the inputs are left in place."""
        report, _output = yield from self._compaction_engine.compact_files(
            state.proc, input_paths, output_path,
            drop_tombstones=drop_tombstones, mode="offloaded")
        return (report.emitted, report.dropped, report.output_entries,
                report.output_bytes, report.chain_hops)
