"""io_uring: batched asynchronous submission/completion rings.

Models the essentials the paper leans on in Figure 3d: one
``io_uring_enter`` call submits a batch of SQEs, paying the user/kernel
crossing once, but **every** submitted I/O still walks the file system, BIO,
and driver layers (this is the paper's point — io_uring amortises crossings,
not the stack).  Completions arrive over interrupts into the CQ; the
reaping thread blocks until ``wait_nr`` CQEs are available.

A tagged SQE goes where :meth:`Kernel.read_path` sends a tagged
``sys_pread``: on an NVMe-hook installation to the chain engine's
``launch``, whose CQE is posted only when the chain finishes.  The refusal
rule: an SQE naming a descriptor the process does not hold (``EBADF``),
tagged for the syscall hook (io_uring has no dispatch loop to run it in),
or one the chain engine's ``begin`` refuses (``EINVAL``) completes at once:
no span, no per-SQE charge, no device I/O, and the rest of the batch goes
on.  So does a chain whose range ``launch`` finds refused (``EINVAL``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, List, Optional

from repro.errors import BadFileDescriptor, InvalidArgument, IoError
from repro.kernel.kernel import ChainStatus, Kernel, ReadResult
from repro.kernel.process import Process
from repro.obs import events as obs_events

__all__ = ["Cqe", "IoUring", "Sqe"]


@dataclass
class Sqe:
    """One submission-queue entry (reads only; that is all the paper uses).

    ``args`` and ``scratch_init`` parameterise a tagged BPF chain per
    submission (e.g. the lookup key), mirroring XRP's per-call context.
    """

    fd: int
    offset: int
    length: int
    user_data: Any = None
    tagged: bool = False
    args: tuple = ()
    scratch_init: bytes = b""


@dataclass
class Cqe:
    """One completion-queue entry."""

    user_data: Any
    result: ReadResult


class IoUring:
    """A per-process ring pair bound to one kernel."""

    def __init__(self, kernel: Kernel, proc: Process, queue_depth: int = 256):
        if queue_depth < 1:
            raise InvalidArgument("queue depth must be >= 1")
        self.kernel = kernel
        self.proc = proc
        self.queue_depth = queue_depth
        self._sq: List[Sqe] = []
        self._cq: List[Cqe] = []
        self._waiter = None
        self._in_flight = 0

    # -- user-space side -------------------------------------------------

    def prep_read(self, fd: int, offset: int, length: int,
                  user_data: Any = None, tagged: bool = False,
                  args: tuple = (), scratch_init: bytes = b"") -> None:
        """Queue an SQE (no kernel involvement until enter())."""
        if len(self._sq) + self._in_flight >= self.queue_depth:
            raise InvalidArgument("submission queue full")
        self._sq.append(Sqe(fd, offset, length, user_data, tagged, args,
                            scratch_init))

    def enter(self, wait_nr: int = 0):
        """Submit all queued SQEs and wait for ``wait_nr`` completions.

        Generator (run inside a simulated thread).  Returns the list of
        reaped CQEs (everything available once ``wait_nr`` was reached).
        """
        kernel = self.kernel
        cost = kernel.cost
        sim = kernel.sim
        bus = kernel.bus
        submitted, self._sq = self._sq, []
        kernel.syscall_count += 1

        # One boundary crossing + ring bookkeeping for the whole batch.
        yield from kernel.cpus.run_thread(cost.kernel_crossing_ns +
                                          cost.iouring_enter_ns)
        if bus.enabled:
            bus.emit(obs_events.SYSCALL_ENTER, sim.now, op="io_uring_enter",
                     pid=self.proc.pid, crossing_ns=cost.kernel_crossing_ns,
                     syscall_ns=0, uring_ns=cost.iouring_enter_ns,
                     path="uring", span=0, batch=len(submitted))

        for sqe in submitted:
            try:
                file = self.proc.file(sqe.fd)
                path = kernel.read_path(file, sqe.tagged)
                if path == "syscall":
                    raise InvalidArgument("io_uring has no dispatch loop")
                if path == "chain":
                    state = kernel.chains.begin(
                        self.proc, file, sqe.offset, sqe.length, sqe.args,
                        sqe.scratch_init)
            except (BadFileDescriptor, InvalidArgument) as refusal:
                # ReadResult takes the errno's name as its status.
                self._cq.append(Cqe(sqe.user_data, ReadResult(
                    b"", status=refusal.errno_name.lower(),
                    final_offset=sqe.offset)))
                continue
            chained = path == "chain"
            path = "chain" if chained else "uring"
            span = 0
            if bus.enabled:
                # The SQE's root, before its first charge; the chain or
                # the plain completion closes it.
                span = bus.span_start("read_chain" if chained else "uring_sqe",
                                      sim.now, pid=self.proc.pid, path=path)
            yield from kernel.cpus.run_thread(cost.iouring_sqe_ns)
            if bus.enabled:
                bus.emit(obs_events.SYSCALL_ENTER, sim.now, op="uring_sqe",
                         pid=self.proc.pid, crossing_ns=0, syscall_ns=0,
                         uring_ns=cost.iouring_sqe_ns, path=path, span=span)
            if chained:
                state.span = span
                state.deliver = partial(self._complete_chain, sqe.user_data,
                                        state)
                self._in_flight += 1
                try:
                    yield from kernel.chains.launch(state)
                except InvalidArgument:  # the file system refused it
                    self._post_cqe(sqe.user_data, ReadResult(
                        b"", status=ChainStatus.EINVAL,
                        final_offset=sqe.offset))
                continue
            # Normal async path: fs -> bio -> driver, completion by IRQ.
            segments = yield from kernel.map_bio(file, sqe.offset,
                                                 sqe.length, span, "uring")
            self._in_flight += 1
            # All of this ring's plain I/O rides the submitter's queue
            # pair; tagged chains pick the same pair inside the chain
            # engine (both key off the owning process).
            yield from kernel.gather(
                segments, kernel.cpus.run_thread,
                partial(self._complete_sqe, sqe, span), span=span,
                path="uring", queue=kernel.queue_for(self.proc),
                tenant=kernel.tenant_of(self.proc))

        if wait_nr > len(self._cq) + self._in_flight:
            raise IoError(
                f"waiting for {wait_nr} completions but only "
                f"{len(self._cq) + self._in_flight} outstanding")

        while len(self._cq) < wait_nr:
            self._waiter = sim.event()
            yield self._waiter
            self._waiter = None
        if wait_nr > 0:
            # Woken by the completion IRQ: pay the schedule-in cost, then
            # the (batched) reap cost per CQE.
            yield from kernel.cpus.run_thread(cost.context_switch_ns)
            if bus.enabled:
                bus.emit(obs_events.CONTEXT_SWITCH, sim.now,
                         cpu_ns=cost.context_switch_ns, span=0, path="uring")
        reaped, self._cq = self._cq, []
        if reaped:
            yield from kernel.cpus.run_thread(cost.iouring_reap_ns *
                                              len(reaped))
            if bus.enabled:
                bus.emit(obs_events.SYSCALL_ENTER, sim.now, op="uring_reap",
                         pid=self.proc.pid, crossing_ns=0, syscall_ns=0,
                         uring_ns=cost.iouring_reap_ns * len(reaped),
                         path="uring", span=0, batch=len(reaped))
        return reaped

    # -- kernel side -------------------------------------------------------

    def _complete_chain(self, user_data: Any, state: Any,
                        result: ReadResult) -> None:
        """Deliver a chain's result: close its root span, post its CQE."""
        if self.kernel.bus.enabled:
            self.kernel.chains.end_span(state, result)
        self._post_cqe(user_data, result)

    def _complete_sqe(self, sqe: Sqe, span: int,
                      data: Optional[bytes]) -> None:
        """Post the CQE of a plain SQE once :meth:`Kernel.gather` has it
        (``data`` None: a segment failed)."""
        status = ChainStatus.OK if data is not None else ChainStatus.EIO
        if span:
            self.kernel.bus.span_end(span, self.kernel.sim.now, status=status)
        self._post_cqe(sqe.user_data, ReadResult(data or b"", status=status,
                                                 final_offset=sqe.offset))

    def _post_cqe(self, user_data: Any, result: ReadResult) -> None:
        """Called (in IRQ context) when an I/O or chain finishes."""
        self._cq.append(Cqe(user_data, result))
        self._in_flight -= 1
        if self._waiter is not None and not self._waiter.triggered:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

