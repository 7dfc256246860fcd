"""The kernel proper: syscall layer, read/write data paths, IRQ handling.

The kernel wires the pieces together — CPU cores, cost model, file system,
NVMe device — and implements the three dispatch paths of the paper's
Figure 2:

* the **normal path**: ``sys_pread`` descends syscall → ext4 → BIO → driver,
  then either polls (microsecond devices; the thread burns its core for the
  whole round trip, which is why the Figure 3 baseline saturates six cores
  with six threads) or blocks and is woken by the completion IRQ;
* the **syscall-dispatch hook**: after each completed read, the chain
  engine may ask for a reissue at a new offset without returning to user
  space (saves the boundary crossing and the app-side processing per hop);
* the **NVMe-driver hook**: tagged reads hand their completions to the
  chain engine, which runs in interrupt context and can recycle the
  command straight back to the device.

:meth:`Kernel.read_path` is the one rule picking among them, for
``sys_pread`` and io_uring alike.  All three share one read-side descent
(:meth:`Kernel.map_bio`) and one submission site: :meth:`Kernel.post`
builds and tags every command, :meth:`Kernel.repost` recycles one, and
``_check`` maps a completion status to a typed error.  The segments of a
data I/O are posted only by :meth:`Kernel.transfer` (a waiting caller;
failed segments retried in place) and :meth:`Kernel.gather` (a callback),
both joining chunks in segment order; :meth:`Kernel.retry_verdict` reads
every failed completion under the driver's one retry rule
(``NVME_MAX_RETRIES``, ``NVME_BACKOFF_BASE_NS``).

The kernel knows nothing about BPF: it only exposes one slot,
:attr:`Kernel.chains`, and an ioctl-handler registry that
:mod:`repro.core` fills in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.device import (
    BlockDevice,
    LatencyModel,
    NvmeCommand,
    NvmeDevice,
    STATUS_POWER_FAIL,
    STATUS_TIMEOUT,
)
from repro.errors import InvalidArgument, IoError, PowerLossError
from repro.faults import FaultPlan, FaultSpec, get_default_fault_spec
from repro.kernel.extfs import ExtFs
from repro.kernel.journal import JournalConfig
from repro.kernel.layers import CostModel
from repro.kernel.process import File, Process
from repro.obs import events as obs_events
from repro.obs.bus import TraceBus, get_default_bus
from repro.qos import QosConfig, QosManager, Tenant
from repro.sim import (
    CpuSet,
    RandomStreams,
    Resource,
    Simulator,
    exponential_backoff_ns,
)

__all__ = ["ChainStatus", "IoCookie", "Kernel", "KernelConfig",
           "NVME_BACKOFF_BASE_NS", "NVME_MAX_RETRIES", "ReadResult"]


#: The NVMe driver's retry rule, armed in every kernel: a failed command
#: is resubmitted up to ``NVME_MAX_RETRIES`` times, after a backoff slept
#: in simulated time that starts at ``NVME_BACKOFF_BASE_NS`` and doubles
#: (:func:`~repro.sim.exponential_backoff_ns`).  A power failure is never
#: retried.
NVME_MAX_RETRIES = 4
NVME_BACKOFF_BASE_NS = 2_000


@dataclass
class KernelConfig:
    """Knobs for building a simulated machine."""

    cores: int = 6
    cost_model: CostModel = field(default_factory=CostModel)
    capacity_sectors: int = 4 * 1024 * 1024  # 2 GiB
    seed: int = 0
    #: Blocks per extent cap for the allocator (small values force
    #: fragmented files and exercise the BIO split fallback).
    max_extent_blocks: int = 32768
    #: Tracepoint bus; None picks up the process default (NULL_BUS unless
    #: an ObsSession is active), keeping tracing off-by-default-cheap.
    bus: Optional[TraceBus] = None
    #: Fault plan spec; None picks up the process default installed by
    #: ``repro.faults.fault_injection`` (no plan unless one is active).
    fault_plan: Optional[FaultSpec] = None
    #: Volatile write-cache depth (records) on the NVMe device.  0 keeps
    #: the pre-crash-consistency write-through behaviour — and the
    #: byte-identical traces that go with it.
    write_cache_depth: int = 0
    #: Metadata journal configuration; None runs the file system without
    #: durability (crash recovery then being impossible, as before).
    journal: Optional[JournalConfig] = None
    #: NVMe submission/completion queue pairs.  1 (the default) keeps the
    #: historical single-pair device and its byte-identical traces; N > 1
    #: gives each pair its own service loops sharing the device bandwidth,
    #: with I/Os steered by submitter pid (``Kernel.queue_for``).
    queue_pairs: int = 1
    #: Steer each queue pair's completion interrupts to the CPU core that
    #: owns the pair (core ``queue % cores``), serialising that pair's
    #: completion-side work on its core the way a bound IRQ vector does.
    #: Steering is always on when ``queue_pairs > 1``; set True to model a
    #: bound vector even for a single pair (all completion work then
    #: funnels through one core — the contention the ``scale`` experiment
    #: measures).
    irq_steering: bool = False
    #: Multi-tenant QoS policy (:class:`repro.qos.QosConfig`).  None — the
    #: default — builds no QoS machinery at all: no manager, no WFQ
    #: arbitration, no admission buckets, and byte-identical behaviour to
    #: a kernel predating the subsystem.
    qos: Optional[QosConfig] = None


class ChainStatus(str, enum.Enum):
    """Typed status of a (possibly chained) read.

    Values are the historical status strings, and the class mixes in
    ``str``, so comparisons against bare literals
    (``result.status == "eextent"``) keep working, and statuses serialise
    to the same bytes in ``--json`` rows, trace events, and metrics labels
    as before the enum existed.  (The mixin is why this is a string enum
    rather than an ``IntEnum`` — int values would have changed every
    serialised artefact.)
    """

    OK = "ok"
    EXTENT_INVALIDATED = "eextent"
    SPLIT_FALLBACK = "split-fallback"
    #: A hop's read failed, not by a power cut: a faulted hop once the
    #: in-kernel retry budget ran out, or a split read with a failed
    #: segment.  The hop was handed back (with its scratch) to finish in
    #: user space.
    FAULT_FALLBACK = "fault-fallback"
    CHAIN_LIMIT = "echainlim"
    EIO = "eio"
    #: The program asked for an action the hooks do not define; also an
    #: io_uring SQE tagged for the syscall hook, which io_uring cannot run,
    #: one the chain engine's ``begin`` refuses, or a tagged one whose
    #: range the file system refuses.
    EINVAL = "einval"
    #: An io_uring SQE naming a descriptor the process does not hold.
    EBADF = "ebadf"

    # Render as the bare value ("ok", not "ChainStatus.OK") on every
    # supported Python version, so tables, f-strings, and label keys are
    # stable.
    __str__ = str.__str__
    __format__ = str.__format__


class ReadResult:
    """What a read (possibly a BPF chain) returned to the application."""

    __slots__ = ("data", "status", "hops", "final_offset", "value", "value2",
                 "scratch")

    def __init__(self, data: bytes, status: str = ChainStatus.OK,
                 hops: int = 1,
                 final_offset: int = 0, value: Optional[int] = None,
                 value2: Optional[int] = None,
                 scratch: Optional[bytes] = None):
        self.data = data
        try:
            self.status = ChainStatus(status)
        except ValueError:
            raise InvalidArgument(f"unknown read status {status!r}") from None
        self.hops = hops
        self.final_offset = final_offset
        #: Scalar results a BPF chain chose to return instead of a buffer.
        self.value = value
        self.value2 = value2
        #: Opaque continuation payload for fallback restarts (the chain's
        #: scratch area at the moment it was handed back to the app).
        self.scratch = scratch

    @property
    def ok(self) -> bool:
        return self.status == ChainStatus.OK

    def __repr__(self) -> str:
        return (f"ReadResult({self.status}, {len(self.data)}B, "
                f"hops={self.hops})")


class IoCookie:
    """Driver-side per-command state hung off ``NvmeCommand.cookie``.

    ``kind`` selects the completion discipline: ``"poll"`` (the submitting
    thread is spinning and reaps the completion itself), ``"irq"`` (the
    kernel runs an interrupt handler which wakes the waiter), or
    ``"chain"`` (the completion belongs to a BPF chain and is handed to
    :attr:`Kernel.chains`).
    """

    __slots__ = ("kind", "event", "chain")

    def __init__(self, kind: str, event: Any = None, chain: Any = None):
        if kind not in ("poll", "irq", "chain"):
            raise InvalidArgument(f"bad cookie kind {kind!r}")
        self.kind = kind
        self.event = event
        self.chain = chain


class Kernel:
    """One simulated machine: cores + kernel + file system + NVMe device."""

    def __init__(self, sim: Simulator, device_model: LatencyModel,
                 config: Optional[KernelConfig] = None):
        self.sim = sim
        self.config = config or KernelConfig()
        self.cost = self.config.cost_model
        self.cpus = CpuSet(sim, self.config.cores)
        self.streams = RandomStreams(self.config.seed)
        self.media = BlockDevice(self.config.capacity_sectors)
        self.bus = (self.config.bus if self.config.bus is not None
                    else get_default_bus())
        if self.config.queue_pairs < 1:
            raise InvalidArgument(
                f"queue_pairs must be >= 1, got {self.config.queue_pairs}")
        #: The QoS authority; exists exactly when a QosConfig was given.
        self.qos: Optional[QosManager] = (
            QosManager(self.config.qos, bus=self.bus,
                       clock=lambda: sim.now)
            if self.config.qos is not None else None)
        self.device = NvmeDevice(sim, device_model, self.media,
                                 self.streams.stream("nvme"), bus=self.bus,
                                 cache_depth=self.config.write_cache_depth,
                                 queues=self.config.queue_pairs,
                                 qos=self.qos)
        # Per-core IRQ steering: each queue pair's completion vector is
        # bound to core ``queue % cores``, so all completion-side work of
        # one pair (IRQ entry, the BPF hook, resubmission) serialises on
        # that core instead of spreading over the run queue.  Lanes model
        # the interrupt context of their core: hardware IRQs preempt
        # whatever thread the core is running, which a non-preemptive
        # simulator cannot express, so the lane bounds completion-path
        # *concurrency* (the scaling-relevant contention) rather than
        # stealing the thread scheduler's cycles.
        steer = self.config.queue_pairs > 1 or self.config.irq_steering
        self.irq_lanes: Optional[List[Resource]] = (
            [Resource(sim, 1, name=f"irq-core{core}")
             for core in range(self.config.cores)] if steer else None)
        self.media.bus = self.bus
        self.media.clock = lambda: sim.now
        self.device.completion_handler = self._on_device_completion
        # --- fault plan + controller watchdog ----------------------------
        spec = (self.config.fault_plan if self.config.fault_plan is not None
                else get_default_fault_spec())
        self.fault_plan: Optional[FaultPlan] = (
            FaultPlan(spec, kernel_seed=self.config.seed)
            if spec is not None else None)
        self.device.fault_plan = self.fault_plan
        self.device.command_timeout_ns = 20 * max(device_model.read_ns,
                                                  device_model.write_ns)
        self.fs = ExtFs(self.media,
                        max_extent_blocks=self.config.max_extent_blocks,
                        journal_config=self.config.journal)
        self.fs.bus = self.bus
        self.fs.clock = lambda: sim.now
        self.fs.resolve_cost_ns = self.cost.filesystem_ns
        if self.fs.journal is not None:
            self.fs.journal.bus = self.bus
            self.fs.journal.clock = lambda: sim.now
        self.model = device_model
        self._next_pid = 1

        # --- slots filled in by repro.core --------------------------------
        #: The chain engine (``repro.core.chains.ChainEngine``, duck-typed),
        #: or None.  It takes every tagged read :meth:`read_path` sends
        #: down a hook: ``begin`` checks the request and builds its chain
        #: state before anything is charged; ``launch`` starts an NVMe-hook
        #: chain from that state on both entries (``sys_pread`` and
        #: io_uring each set the state's ``deliver``, and close its root
        #: span through ``end_span``); ``syscall_hook`` is the dispatch
        #: loop's step; and ``handle_completion`` takes every completion
        #: whose cookie.kind == "chain".
        self.chains: Any = None
        #: ioctl dispatch: op code -> generator fn(proc, file, arg) -> int.
        self.ioctl_handlers: Dict[int, Callable] = {}

        # Statistics.
        self.syscall_count = 0
        self.irq_count = 0
        self.nvme_retries = 0
        self.nvme_timeouts = 0
        self.fsyncs = 0
        self.recoveries = 0

    # ------------------------------------------------------------------
    # Process management
    # ------------------------------------------------------------------

    def spawn_process(self, name: str = "",
                      tenant: Optional[Any] = None) -> Process:
        """Create a process, optionally bound to a tenant.

        ``tenant`` is a :class:`repro.qos.Tenant` or a bare tenant name;
        a name resolves through the QoS config (picking up its declared
        weight) when one is active.  Untenanted processes account by pid,
        exactly as before tenants existed.
        """
        if isinstance(tenant, str):
            tenant = (self.qos.config.tenant(tenant) if self.qos is not None
                      else Tenant(tenant))
        proc = Process(self._next_pid, name, tenant=tenant)
        self._next_pid += 1
        return proc

    def tenant_of(self, proc: Process) -> Optional[str]:
        """The tenant name charged for ``proc``'s I/O (None = untenanted)."""
        return proc.tenant.name if proc.tenant is not None else None

    # ------------------------------------------------------------------
    # Syscalls (each is a generator run inside a simulated thread)
    # ------------------------------------------------------------------

    def _enter(self, proc: Process, op: str, extra_ns: int = 0,
               path: str = "ctl", span: int = 0):
        """Generator: the one syscall entry step.

        Counts the syscall, charges the boundary crossing, the dispatch
        layer and ``extra_ns`` (the op's own work) as one thread run, then
        publishes ``syscall_enter``.  A ``"reissue"``, the syscall hook's
        return to the dispatch layer from inside the kernel, crosses no
        boundary and is not counted.
        """
        cost = self.cost
        crossing_ns = 0
        if op != "reissue":
            crossing_ns = cost.kernel_crossing_ns
            self.syscall_count += 1
        yield from self.cpus.run_thread(crossing_ns + cost.syscall_ns +
                                        extra_ns)
        if self.bus.enabled:
            self.bus.emit(obs_events.SYSCALL_ENTER, self.sim.now, op=op,
                          pid=proc.pid, crossing_ns=crossing_ns,
                          syscall_ns=cost.syscall_ns, path=path, span=span)

    def sys_open(self, proc: Process, path: str, create: bool = False):
        """Open (optionally creating) a file; returns an fd."""
        yield from self._enter(proc, "open")
        if create and not self.fs.exists(path):
            inode = self.fs.create(path)
            yield from self._maybe_sync_commit(0, "write")
        else:
            inode = self.fs.lookup(path)
        return proc.install_fd(File(inode, path=path))

    def sys_unlink(self, proc: Process, path: str):
        """Remove a file name (and free its blocks)."""
        yield from self._enter(proc, "unlink", self.cost.filesystem_ns)
        self.fs.unlink(path)
        yield from self._maybe_sync_commit(0, "write")
        return 0

    def sys_rename(self, proc: Process, old_path: str, new_path: str):
        """Atomically rename (the write-new-then-rename commit pattern)."""
        yield from self._enter(proc, "rename", self.cost.filesystem_ns)
        self.fs.rename(old_path, new_path)
        yield from self._maybe_sync_commit(0, "write")
        return 0

    def sys_close(self, proc: Process, fd: int):
        yield from self._enter(proc, "close")
        proc.close_fd(fd)
        return 0

    def sys_ioctl(self, proc: Process, fd: int, op: int, arg: Any = None):
        """Dispatch to a registered ioctl handler (e.g. the BPF install)."""
        yield from self._enter(proc, "ioctl")
        if op not in self.ioctl_handlers:
            raise InvalidArgument(f"unknown ioctl op {op:#x}")
        file = proc.file(fd)
        result = yield from self.ioctl_handlers[op](proc, file, arg)
        return result

    def sys_ftruncate(self, proc: Process, fd: int, size: int):
        yield from self._enter(proc, "ftruncate", self.cost.filesystem_ns)
        self.fs.truncate(proc.file(fd).inode, size)
        yield from self._maybe_sync_commit(0, "write")
        return 0

    @staticmethod
    def read_path(file: File, tagged: bool) -> str:
        """The one dispatch rule for a read, by the installation's hook:
        ``"chain"`` (NVMe hook), ``"syscall"`` (syscall hook), or
        ``"normal"`` for an untagged read or a plain descriptor."""
        install = file.bpf_install
        if not tagged or install is None:
            return "normal"
        return "chain" if install.hook_kind == "nvme" else "syscall"

    def sys_pread(self, proc: Process, fd: int, offset: int, length: int,
                  tagged: bool = False, args: Tuple[int, ...] = (),
                  scratch_init: bytes = b""):
        """A synchronous O_DIRECT positional read.

        A ``tagged`` read goes where :meth:`read_path` sends it: down the
        NVMe-hook chain, or round the syscall hook's dispatch loop; the
        returned :class:`ReadResult` then reports chain status and hops.
        ``args`` and ``scratch_init`` parameterise the chain, as an io_uring
        ``Sqe``'s do.  The chain engine's ``begin`` checks such a request
        before the syscall is counted or charged, so a refused one raises
        :class:`InvalidArgument` at no cost.
        """
        if length < 0:
            raise InvalidArgument("read length must be >= 0")
        file = proc.file(fd)
        io_path = self.read_path(file, tagged)
        state = None
        if io_path != "normal":
            state = self.chains.begin(proc, file, offset, length, args,
                                      scratch_init)
        span = 0
        if self.bus.enabled:
            # The operation's root, before its first charge.  An NVMe-hook
            # chain's root is closed by the chain engine.
            span = self.bus.span_start(
                "read_chain" if io_path == "chain" else "sys_pread",
                self.sim.now, pid=proc.pid, path=io_path)
        yield from self._enter(proc, "pread", path=io_path, span=span)
        if state is not None:
            state.span = span
        if io_path == "chain":
            # Block while the chain runs in interrupt context.
            waiter = self.sim.event()
            state.deliver = waiter.succeed
            yield from self.chains.launch(state)
            result = yield waiter
            yield from self.cpus.run_thread(self.cost.context_switch_ns)
            if self.bus.enabled:
                self.bus.emit(obs_events.CONTEXT_SWITCH, self.sim.now,
                              cpu_ns=self.cost.context_switch_ns, span=span,
                              path=io_path)
                self.chains.end_span(state, result)
            return result

        queue = self.queue_for(proc)
        tenant = self.tenant_of(proc)
        try:
            if length == 0:
                # POSIX pread: zero-length reads succeed with no data and
                # never reach the device.
                return ReadResult(b"", final_offset=offset)
            while True:  # syscall-dispatch hook reissue loop
                data = yield from self._normal_read_path(file, offset, length,
                                                         span=span,
                                                         path=io_path,
                                                         queue=queue,
                                                         tenant=tenant)
                result = ReadResult(data, final_offset=offset)
                if io_path != "syscall":
                    return result
                offset, result = yield from self.chains.syscall_hook(
                    state, offset, result)
                if result is not None:
                    return result
                # Re-enter the dispatch layer without a boundary crossing
                # or app-side processing.
                yield from self._enter(proc, "reissue", path=io_path,
                                       span=span)
        except GeneratorExit:
            span = 0  # abandoned mid-flight: the operation never ended
            raise
        finally:
            if span:
                self.bus.span_end(span, self.sim.now)

    def sys_pwrite(self, proc: Process, fd: int, offset: int, data: bytes):
        """A synchronous O_DIRECT positional write (sector aligned).

        ``data`` is snapshotted as ``bytes`` on entry: the write cache and
        the media keep what they are given, and the caller may reuse its
        buffer while the write is in flight or after it returns.
        """
        data = bytes(data)
        file = proc.file(fd)
        cost = self.cost
        span = 0
        if self.bus.enabled:
            span = self.bus.span_start("sys_pwrite", self.sim.now,
                                       pid=proc.pid, path="write")
        try:
            yield from self._enter(proc, "pwrite", path="write", span=span)
            if not data:
                return 0
            yield from self.cpus.run_thread(cost.filesystem_ns)
            # Allocation and the size update land in ONE journal transaction,
            # so replay can never leave blocks mapped past EOF.
            with self.fs.txn():
                self.fs.ensure_allocated(file.inode, offset, len(data))
                self.fs.set_size(file.inode,
                                 max(file.inode.size, offset + len(data)))
            segments = self.fs.map_range(file.inode, offset, len(data),
                                         span=span, path="write")
            yield from self.cpus.run_thread(cost.bio_ns)
            if self.bus.enabled:
                self.bus.emit(obs_events.BIO_SUBMIT, self.sim.now,
                              cpu_ns=cost.bio_ns, segments=len(segments),
                              span=span, path="write")
            yield from self.transfer("write", segments, data, span=span,
                                     path="write", queue=self.queue_for(proc),
                                     tenant=self.tenant_of(proc))
            yield from self._maybe_sync_commit(span, "write")
            yield from self.cpus.run_thread(cost.context_switch_ns)
            if self.bus.enabled:
                self.bus.emit(obs_events.CONTEXT_SWITCH, self.sim.now,
                              cpu_ns=cost.context_switch_ns, span=span,
                              path="write")
        except GeneratorExit:
            span = 0  # abandoned mid-flight: the operation never ended
            raise
        finally:
            if span:
                self.bus.span_end(span, self.sim.now)
        return len(data)

    def sys_fsync(self, proc: Process, fd: int):
        """Make the file's data *and* metadata durable.

        The crash-consistency contract: FLUSH the device's volatile write
        cache first (data), then FUA-append every pending metadata
        transaction to the journal.  A power cut between the two loses the
        metadata txns but never commits metadata describing non-durable
        data — ext4's ordered mode.
        """
        proc.file(fd)  # validate the descriptor
        self.fsyncs += 1
        cost = self.cost
        span = 0
        if self.bus.enabled:
            span = self.bus.span_start("sys_fsync", self.sim.now,
                                       pid=proc.pid, path="write")
        queue = self.queue_for(proc)
        try:
            yield from self._enter(proc, "fsync", path="write", span=span)
            yield from self._device_flush(span, "write", queue=queue)
            journal = self.fs.journal
            if journal is not None and journal.pending_txns:
                yield from self._commit_journal(span, "write", queue=queue)
            yield from self.cpus.run_thread(cost.context_switch_ns)
            if self.bus.enabled:
                self.bus.emit(obs_events.CONTEXT_SWITCH, self.sim.now,
                              cpu_ns=cost.context_switch_ns, span=span,
                              path="write")
        except GeneratorExit:
            span = 0  # abandoned mid-flight: the operation never ended
            raise
        finally:
            if span:
                self.bus.span_end(span, self.sim.now)
        return 0

    def _device_flush(self, span: int, path: str, queue: int = 0):
        """Issue an NVMe FLUSH and wait for it (timed).

        The flush drains the device-wide volatile cache whatever queue it
        arrives on; ``queue`` only selects the pair (and completion
        vector) carrying the command.
        """
        yield from self.cpus.run_thread(self.cost.nvme_driver_ns)
        completed = yield self.post("flush", 0, 0, span=span, path=path,
                                    queue=queue)
        self._check(completed, "flush")

    def _commit_journal(self, span: int, path: str, queue: int = 0):
        """FUA-write every pending journal txn frame, in order (timed).

        A failed frame is retried in place under the driver's rule
        (:meth:`_retry`), FUA and all.
        """
        journal = self.fs.journal
        cost = self.cost
        yield from self.cpus.run_thread(cost.filesystem_ns)
        if self.bus.enabled:
            self.bus.emit(obs_events.JOURNAL_BEGIN, self.sim.now,
                          cpu_ns=cost.filesystem_ns,
                          txns=journal.pending_txns, span=span,
                          path=path)
        if journal.checkpoint_due() or not journal.fits_pending():
            # Untimed maintenance, the kjournald/background-writeback
            # analogue: serialise metadata, truncate + TRIM the log.
            # Pending txns are absorbed by the checkpoint.
            self.fs.checkpoint_sync()
        if not journal.pending_txns:
            return
        frames = journal.encode_pending()
        for lba, frame in frames:
            yield from self.cpus.run_thread(cost.nvme_driver_ns)
            completed = yield self.post("write", lba, len(frame) // 512,
                                        data=frame, fua=True,
                                        source="journal", span=span,
                                        path=path, queue=queue)
            if completed.status:
                yield from self._retry(completed, frame, "journal commit",
                                       self.cpus.run_thread, "irq", span,
                                       path, queue, None)
        journal.note_committed(frames)

    def _maybe_sync_commit(self, span: int, path: str):
        """In ``sync_commit`` journal mode, commit at the op boundary.

        Meant for write-through devices (cache depth 0), where the data a
        txn describes is already durable when the op completes — making
        every completed operation crash-proof.
        """
        journal = self.fs.journal
        if journal is None or not journal.config.sync_commit or \
                not journal.pending_txns:
            return
        yield from self._commit_journal(span, path)

    # ------------------------------------------------------------------
    # Data path internals (also used by repro.core)
    # ------------------------------------------------------------------

    def should_poll(self) -> bool:
        """Hybrid polling: spin for completions on microsecond devices."""
        return self.model.read_ns < self.cost.poll_threshold_ns

    def queue_for(self, proc: Process) -> int:
        """The NVMe queue pair owning ``proc``'s I/O (pid-steered)."""
        pairs = self.config.queue_pairs
        if pairs == 1:
            return 0
        return proc.pid % pairs

    def run_irq(self, cost: int, queue: int = 0):
        """Charge interrupt-context CPU for ``queue``'s completion vector.

        Without steering this is the historical shared run queue at IRQ
        priority; with steering the work serialises on the IRQ lane of the
        core owning the queue pair.
        """
        if self.irq_lanes is None:
            return self.cpus.run_irq(cost)
        return self.irq_lanes[queue % len(self.irq_lanes)].execute(cost)

    def _spin(self, cost: int):
        """Charge ``cost`` to a core the caller already holds (polling)."""
        yield self.sim.timeout(cost)

    def transfer(self, opcode: str, segments: List[Tuple[int, int]],
                 data: Optional[bytes] = None, held: bool = False,
                 span: int = 0, path: str = "normal",
                 queue: int = 0, tenant: Optional[str] = None):
        """Generator: move ``segments`` for a waiting caller; returns the
        bytes, joined in segment order.

        Every segment is posted back to back (``data`` is sliced across
        them for a write), then waited for in segment order.  ``held``
        means the caller polls on a core it holds: driver cost is that
        core's time and completions are reaped without an interrupt;
        otherwise driver cost is thread work and each completion wakes the
        caller by IRQ.  A failed segment is retried in place
        (:meth:`_retry`).  Once one has failed for good the rest are only
        waited for, and its error is raised after every segment completed.
        """
        kind = "poll" if held else "irq"
        charge = self._spin if held else self.cpus.run_thread
        posted = yield from self._post_all(opcode, segments, data, charge,
                                           kind, span, path, queue, tenant)
        chunks = []
        error = None
        for chunk, event in posted:
            completed = yield event
            if completed.status and error is None:
                try:
                    completed = yield from self._retry(
                        completed, chunk, opcode, charge, kind, span, path,
                        queue, tenant)
                except (IoError, PowerLossError) as exc:
                    error = exc
            chunks.append(completed.data)
        if error is not None:
            raise error
        return b"".join(chunks)

    def gather(self, segments: List[Tuple[int, int]], charge: Callable,
               deliver: Callable[[Optional[bytes]], None], span: int = 0,
               path: str = "normal", queue: int = 0,
               tenant: Optional[str] = None):
        """Generator: read ``segments`` for a caller that does not wait.

        Posts like :meth:`transfer`, charging driver cost through
        ``charge``, the caller's context (``cpus.run_thread``, or
        ``run_irq`` bound to its queue).  ``deliver`` is called exactly
        once, when the last segment completes, with the chunks joined in
        segment order, or None if any segment failed.  Nothing is retried.
        """
        posted = yield from self._post_all("read", segments, None, charge,
                                           "irq", span, path, queue, tenant)
        events = [event for _chunk, event in posted]
        remaining = len(events)

        def done(_event) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                commands = [event.value for event in events]
                deliver(None if any(command.status for command in commands)
                        else b"".join(command.data for command in commands))

        for event in events:
            event.add_callback(done)

    def _post_all(self, opcode: str, segments: List[Tuple[int, int]],
                  data: Optional[bytes], charge: Callable, kind: str,
                  span: int, path: str, queue: int, tenant: Optional[str]):
        """Generator: charge and post each segment in turn; returns the
        ``(payload, completion event)`` pairs in segment order."""
        posted = []
        offset = 0
        for lba, sectors in segments:
            chunk = None
            if data is not None:
                chunk = data[offset : offset + sectors * 512]
                offset += sectors * 512
            yield from charge(self.cost.nvme_driver_ns)
            posted.append((chunk, self.post(
                opcode, lba, sectors, kind=kind, data=chunk, span=span,
                path=path, queue=queue, tenant=tenant)))
        return posted

    def _retry(self, completed: NvmeCommand, data: Optional[bytes],
               what: str, charge: Callable, kind: str, span: int, path: str,
               queue: int, tenant: Optional[str]):
        """Generator: recover one failed segment; returns the successful
        completion or raises.

        The segment is resubmitted (a fresh descriptor, ``source="retry"``,
        keeping the command's FUA bit; recycling is the chain engine's job)
        after a backoff slept in simulated time, for as long as
        :meth:`retry_verdict` allows.  A refusal raises ``_check``'s typed
        error when the device lost power, and :class:`IoError` once the
        budget is spent.
        """
        opcode, lba = completed.opcode, completed.lba
        sectors, fua = completed.sectors, completed.fua
        attempt = 1
        while completed.status:
            reason, backoff = self.retry_verdict(completed, attempt, True,
                                                 span, path)
            if backoff is None:
                if reason == "power":
                    self._check(completed, what)  # raises
                raise IoError(
                    f"nvme {opcode} at lba {lba} failed after "
                    f"{attempt} attempts ({reason})")
            if backoff:
                yield self.sim.timeout(backoff)
            attempt += 1
            yield from charge(self.cost.nvme_driver_ns)
            completed = yield self.post(
                opcode, lba, sectors, kind=kind, data=data, fua=fua,
                source="retry", span=span, path=path, queue=queue,
                tenant=tenant)
        return completed

    def retry_verdict(self, completed: NvmeCommand, attempt: int,
                      allowed: bool, span: int,
                      path: str) -> Tuple[str, Optional[int]]:
        """Read one failed completion, the ``attempt``-th try (1-based), for
        every caller that may retry it (``_retry`` and the chain engine).

        Returns ``(reason, backoff)``: ``reason`` is ``"power"``,
        ``"timeout"`` or ``"media"``; ``backoff`` is the simulated sleep
        before the retry, or None when the command must not be retried: a
        power failure (the device is gone, so retrying is pointless), the
        ``NVME_MAX_RETRIES`` budget spent, or ``allowed`` false (the
        caller's own bound).  Counts and publishes each timeout and each
        granted retry.
        """
        status = completed.status
        if status == STATUS_POWER_FAIL:
            return "power", None
        reason = "timeout" if status == STATUS_TIMEOUT else "media"
        opcode, lba = completed.opcode, completed.lba
        if status == STATUS_TIMEOUT:
            self.nvme_timeouts += 1
            if self.bus.enabled:
                self.bus.emit(obs_events.NVME_TIMEOUT, self.sim.now,
                              opcode=opcode, lba=lba,
                              timeout_ns=self.device.command_timeout_ns,
                              attempt=attempt, span=span, path=path)
        if attempt > NVME_MAX_RETRIES or not allowed:
            return reason, None
        self.nvme_retries += 1
        backoff = exponential_backoff_ns(NVME_BACKOFF_BASE_NS, attempt)
        if self.bus.enabled:
            self.bus.emit(obs_events.NVME_RETRY, self.sim.now,
                          opcode=opcode, lba=lba, reason=reason,
                          attempt=attempt, backoff_ns=backoff, span=span,
                          path=path)
        return reason, backoff

    def _normal_read_path(self, file: File, offset: int, length: int,
                          span: int = 0, path: str = "normal",
                          queue: int = 0, tenant: Optional[str] = None):
        """ext4 -> BIO -> driver -> device for one read; returns bytes."""
        cost = self.cost
        segments = yield from self.map_bio(file, offset, length, span, path)
        held = self.should_poll()
        if held:
            # The thread holds a core across submission and the device
            # round trip (hybrid polling).
            request = self.cpus.request(CpuSet.PRIORITY_THREAD)
            yield request
        try:
            data = yield from self.transfer("read", segments, held=held,
                                            span=span, path=path, queue=queue,
                                            tenant=tenant)
        finally:
            if held:
                self.cpus.release(request)
        if not held:
            # Interrupt-driven: the thread slept and was woken by the IRQ
            # handler.
            yield from self.cpus.run_thread(cost.context_switch_ns)
            if self.bus.enabled:
                self.bus.emit(obs_events.CONTEXT_SWITCH, self.sim.now,
                              cpu_ns=cost.context_switch_ns, span=span,
                              path=path)
        return data

    def map_bio(self, file: File, offset: int, length: int, span: int,
                path: str):
        """The read-side ext4 + BIO descent (thread context); returns the
        ``(lba, sectors)`` segments the range maps to."""
        cost = self.cost
        yield from self.cpus.run_thread(cost.filesystem_ns)
        segments = self.fs.map_range(file.inode, offset, length,
                                     span=span, path=path)
        yield from self.cpus.run_thread(cost.bio_ns)
        if self.bus.enabled:
            self.bus.emit(obs_events.BIO_SUBMIT, self.sim.now,
                          cpu_ns=cost.bio_ns, segments=len(segments),
                          span=span, path=path)
            if len(segments) > 1:
                self.bus.emit(obs_events.BIO_SPLIT, self.sim.now,
                              segments=len(segments), span=span, path=path)
        return segments

    def post(self, opcode: str, lba: int, sectors: int, kind: str = "irq",
             data: Optional[bytes] = None, fua: bool = False,
             source: str = "bio", span: int = 0, path: str = "normal",
             queue: int = 0, tenant: Optional[str] = None,
             chain: Any = None):
        """Build, tag and submit one command; returns its completion event.

        The one place a kernel-originated command gets its fields, so a new
        per-command field is added here and nowhere else.  The caller
        charges ``nvme_driver_ns`` first, in its own context (thread work,
        a held core's timeout, or ``run_irq``).  A plain function, not a
        generator: it runs once per command.  The event fires with the
        completed command for ``kind`` "poll" and "irq"; a "chain"
        completion goes to the chain handler instead (``chain`` is its
        state), so there is no event to return.
        """
        event = self.sim.event() if chain is None else None
        command = NvmeCommand(opcode, lba, sectors, data=data,
                              cookie=IoCookie(kind, event=event, chain=chain),
                              source=source, fua=fua, queue=queue)
        command.tenant = tenant
        if self.bus.enabled:
            command.span = span
            command.path = path
            command.driver_ns = self.cost.nvme_driver_ns
        self.device.submit(command)
        return event

    def repost(self, command: NvmeCommand, lba: int, sectors: int,
               source: str, span: int) -> None:
        """Recycle a completed descriptor for a new read and submit it (§4).

        ``retarget`` clears what the last service stamped and keeps the
        caller-owned context (queue, tenant, path, cookie); the caller
        charges ``nvme_driver_ns`` first, as for :meth:`post`.
        """
        command.retarget(lba, sectors)
        command.source = source
        if self.bus.enabled:
            command.span = span
            command.driver_ns = self.cost.nvme_driver_ns
        self.device.submit(command)

    def _check(self, completed: NvmeCommand, what: str) -> NvmeCommand:
        """Turn a completion status into a typed error, or return the command."""
        if completed.status == STATUS_POWER_FAIL:
            raise PowerLossError(f"power lost during {what}")
        if completed.status != 0:
            raise IoError(f"media error at lba {completed.lba} ({what})")
        return completed

    # ------------------------------------------------------------------
    # Completion side
    # ------------------------------------------------------------------

    def _on_device_completion(self, command: NvmeCommand) -> None:
        cookie = command.cookie
        if not isinstance(cookie, IoCookie):
            raise IoError(f"completion with foreign cookie: {command!r}")
        if cookie.kind == "poll":
            # The polling thread reaps this itself; no interrupt is raised.
            cookie.event.succeed(command)
            return
        if cookie.kind == "chain":
            self.chains.handle_completion(command)
            return
        self.sim.start(self._irq_complete(command), "irq")

    def _irq_complete(self, command: NvmeCommand):
        """The plain completion interrupt: bookkeeping, then wake the waiter."""
        self.irq_count += 1
        yield from self.run_irq(self.cost.irq_entry_ns, command.queue)
        if self.bus.enabled:
            self.bus.emit(obs_events.IRQ_ENTRY, self.sim.now,
                          cpu_ns=self.cost.irq_entry_ns, span=command.span,
                          path=command.path)
        command.cookie.event.succeed(command)

    # ------------------------------------------------------------------
    # Convenience (setup helpers used by tests/examples/benchmarks)
    # ------------------------------------------------------------------

    def create_file(self, path: str, data: bytes) -> None:
        """Create ``path`` with ``data``, without simulated time."""
        inode = self.fs.create(path)
        if data:
            self.fs.write_sync(inode, 0, data)

    def run_syscall(self, generator) -> Any:
        """Run one syscall generator to completion (drives the simulator)."""
        return self.sim.run_process(generator)

    # ------------------------------------------------------------------
    # Crash / recovery lifecycle
    # ------------------------------------------------------------------

    def crash(self, tear: bool = False) -> Dict[str, int]:
        """Cut power immediately (outside any fault plan).

        Drops the device's volatile write cache — optionally tearing the
        oldest un-flushed multi-sector write — and powers the device off;
        every subsequent submission raises
        :class:`~repro.errors.PowerLossError` until :meth:`recover`.
        """
        rng = (self.fault_plan.power_rng if self.fault_plan is not None
               else self.streams.stream("power"))
        return self.device.power_loss(rng=rng, tear=tear)

    def recover(self):
        """Power the device back on and mount: rebuild the file system
        purely from media via journal replay, then notify derived caches
        (dropping every NVMe-layer extent-cache snapshot, so BPF chains
        must take the EEXTENT reinstall path).  Returns the
        :class:`~repro.kernel.recovery.RecoveryReport`.
        """
        from repro.kernel.recovery import reload_fs
        self.device.power_on()
        report = reload_fs(self.fs)
        self.recoveries += 1
        return report
