"""The chain engine: dependent I/Os resubmitted from kernel hooks.

This is the mechanism of §4.  A *chain* starts as an ordinary tagged read
that walks the full stack once (syscall → ext4 → BIO → driver).  Every
completion of a chain command is handed to :meth:`ChainEngine.handle_completion`
by the NVMe driver, which runs — in interrupt context, charging only IRQ +
BPF + driver costs — the installed program over the fetched block and either:

* **resubmits**: translates the program's ``next_offset`` through the
  NVMe-layer extent cache (never the file system), recycles the very same
  NVMe descriptor, and rings the doorbell again;
* **completes**: wakes the blocked reader (or posts an io_uring CQE) with
  the buffer or with scalar results;
* **aborts**: extent-cache invalidation (``EEXTENT``), the per-process
  resubmission bound (``ECHAINLIM``), an action the hooks do not define
  (``EINVAL``), or a split translation, which falls back to the
  application exactly as §4's granularity-mismatch rule prescribes (buffer
  + ``SPLIT_FALLBACK`` status, app restarts the chain at the next hop).  A
  split read is an ordinary segmented read: :meth:`Kernel.transfer` for a
  blocked reader's first hop, :meth:`Kernel.gather` for an io_uring first
  hop and a mid-chain hop.

The same engine also implements the syscall-dispatch hook: the program runs
in thread context after each completed read and asks the dispatch layer to
reissue, which skips boundary crossings and app-side processing but still
pays the file system and BIO layers per hop — reproducing the modest
Figure 3a speedup against the large Figure 3b one.

Every hook, and the application's own run of the program after a split
fallback, reads the program's verdict in one place
(:meth:`ChainEngine.verdict`); every command a chain sends from interrupt
context leaves through :meth:`ChainEngine._irq_chain`, which ends the chain
``EIO`` instead of raising if the device has lost power.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Any, Callable, Optional, Tuple

from repro.device import NvmeCommand
from repro.errors import InvalidArgument, IoError, PowerLossError
from repro.kernel import ChainStatus, Kernel, ReadResult
from repro.kernel.process import File, Process
from repro.core.accounting import ChainAccounting
from repro.core.extent_cache import NvmeExtentCache, Translation
from repro.core.hooks import (
    ACTION_RESUBMIT,
    ACTION_RETURN_BUFFER,
    ACTION_RETURN_VALUE,
    CTX_ACTION,
    CTX_DATA_LEN,
    CTX_SIZE,
)
from repro.core.install import BpfInstallation
from repro.obs import events as obs_events

__all__ = ["ChainEngine", "ChainState"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# The context struct of `repro.core.hooks` from CTX_DATA_LEN on: the scalar
# inputs in one pack (data_len, file_offset, chain_depth, the scratch
# pointer's slot as padding, arg0-arg3), then from CTX_ACTION the four
# outputs in one unpack (action, next_offset, result, result2).
_CTX_INPUTS = struct.Struct("<QQQ8x4Q")
_CTX_OUTPUTS = struct.Struct("<4Q")


class ChainState:
    """Mutable state of one in-flight chain."""

    __slots__ = ("proc", "file", "install", "offset", "length", "scratch",
                 "args", "hops", "attempts", "deliver", "done", "span",
                 "queue", "wake")

    def __init__(self, proc: Process, file: File, install: BpfInstallation,
                 offset: int, length: int, args: Tuple[int, ...],
                 scratch_init: bytes,
                 deliver: Optional[Callable[[ReadResult], None]]):
        if len(args) > 4:  # arg0-arg3 of the context struct, no more
            raise InvalidArgument(
                f"a chain carries at most 4 args, got {len(args)}")
        self.proc = proc
        self.file = file
        self.install = install
        self.offset = offset
        self.length = length
        self.scratch = bytearray(install.scratch_size)
        self.scratch[: len(scratch_init)] = scratch_init
        #: arg0-arg3: the caller's, then the installation's defaults.
        self.args = tuple(args) + install.default_args[len(args):]
        self.hops = 0
        #: Consecutive retries of the current hop's read (reset on success).
        self.attempts = 0
        self.deliver = deliver
        self.done = False
        #: Root span id of this chain (0 when tracing is disabled).
        self.span = 0
        #: NVMe queue pair the chain was started on.  Every resubmitted
        #: hop reuses it, so the whole chain's completion work stays on
        #: the core owning that pair (never crossing the CpuSet).
        self.queue = 0
        #: The event the chain's interrupt-context process waits on while
        #: a recycled command is in flight; None before the first
        #: completion and once the chain's process has ended.
        self.wake = None

    def finish(self, result: ReadResult) -> None:
        if self.done:
            raise IoError("chain delivered twice")
        self.done = True
        self.deliver(result)

    def fail(self, status: ChainStatus) -> None:
        """End the chain with ``status``, no data, at the current offset."""
        self.finish(ReadResult(b"", status=status, hops=self.hops,
                               final_offset=self.offset))


class ChainEngine:
    """The chain machinery of one kernel instance (its ``chains`` slot)."""

    def __init__(self, kernel: Kernel, cache: NvmeExtentCache,
                 accounting: ChainAccounting):
        self.kernel = kernel
        self.cache = cache
        self.accounting = accounting
        # Statistics.
        self.chains_started = 0
        self.chains_completed = 0
        self.split_fallbacks = 0
        self.extent_aborts = 0
        self.fault_retries = 0
        self.fault_fallbacks = 0

    # ------------------------------------------------------------------
    # The program's verdict (both hooks and the user-space step)
    # ------------------------------------------------------------------

    def verdict(self, state: ChainState, data: bytes, charge: Callable,
                hook: str, span: int, path: str):
        """Generator: run the installed program over ``data`` and read its
        verdict, the one place any caller does.

        The program's ``bpf_run_ns`` is charged through ``charge``, the
        caller's context: ``run_irq`` on the chain's queue (NVMe hook),
        ``run_thread`` (syscall hook), or the user-space step's single
        charge.  Returns ``(next_offset, None)`` to resubmit, or
        ``(None, result)`` with the ReadResult that ends the chain: the
        buffer (RETURN_BUFFER) or no buffer (RETURN_VALUE) with the
        scalars, ``EINVAL`` for any other action, and ``CHAIN_LIMIT``, with
        the continuation, for a kernel hook's resubmission past the
        fairness bound.
        """
        kernel = self.kernel
        bus = kernel.bus
        install = state.install
        ctx = bytearray(CTX_SIZE)
        arg0, arg1, arg2, arg3 = state.args
        _CTX_INPUTS.pack_into(ctx, CTX_DATA_LEN, len(data), state.offset,
                              state.hops, arg0 & _MASK64, arg1 & _MASK64,
                              arg2 & _MASK64, arg3 & _MASK64)
        # A fresh block per run: the program never sees a previous hop's.
        if len(data) == install.block_size:
            block = bytearray(data)
        else:
            block = bytearray(install.block_size)
            block[: len(data)] = data
        run = install.vm.run(ctx, {"data": block, "scratch": state.scratch})
        install.invocations += 1
        action, next_offset, value, value2 = \
            _CTX_OUTPUTS.unpack_from(ctx, CTX_ACTION)
        bpf_ns = kernel.cost.bpf_run_ns(run.instructions, install.jit)
        yield from charge(bpf_ns)
        if bus.enabled:
            bus.emit(obs_events.BPF_HOOK_DISPATCH, kernel.sim.now, hook=hook,
                     cpu_ns=bpf_ns, instructions=run.instructions,
                     action=action, span=span, path=path)
        if action == ACTION_RESUBMIT:
            if hook == "user" or \
                    self.accounting.may_resubmit(state.proc, state.hops):
                return next_offset, None
            # Kill the chain for fairness.  The result carries the next
            # offset and the scratch so the application can continue with
            # a fresh (bounded) chain from where this one stopped.
            self.accounting.record_kill(state.proc)
            if bus.enabled:
                bus.emit(obs_events.CHAIN_KILL, kernel.sim.now,
                         pid=state.proc.pid, hops=state.hops, span=span,
                         path=path)
            return None, ReadResult(b"", status=ChainStatus.CHAIN_LIMIT,
                                    hops=state.hops, final_offset=next_offset,
                                    scratch=bytes(state.scratch))
        if action == ACTION_RETURN_BUFFER:
            return None, ReadResult(data, hops=state.hops,
                                    final_offset=state.offset, value=value,
                                    value2=value2)
        if action == ACTION_RETURN_VALUE:
            return None, ReadResult(b"", hops=state.hops,
                                    final_offset=state.offset, value=value,
                                    value2=value2)
        return None, ReadResult(b"", status=ChainStatus.EINVAL,
                                hops=state.hops, final_offset=state.offset)

    # ------------------------------------------------------------------
    # NVMe-hook chains
    # ------------------------------------------------------------------

    def _begin(self, proc: Process, file: File, offset: int, length: int,
               args: Tuple[int, ...], scratch_init: bytes,
               deliver: Callable[[ReadResult], None], span: int):
        """Generator: what both entry points do before the first command
        (thread context): descend ext4 + BIO and build the
        :class:`ChainState` under the root ``span`` the caller opened.
        Returns ``(state, segments)``."""
        kernel = self.kernel
        self.chains_started += 1
        segments = yield from kernel.map_bio(file, offset, length, span,
                                             "chain")
        state = ChainState(proc, file, file.bpf_install, offset, length,
                           args, scratch_init, deliver)
        state.span = span
        state.queue = kernel.queue_for(proc)
        return state, segments

    def _first_hop(self, state: ChainState, lba: int, sectors: int):
        """Generator: post the chain-tagged read of a single-extent first
        hop; its completion (and every recycled one) goes to
        :meth:`handle_completion`."""
        kernel = self.kernel
        yield from kernel.cpus.run_thread(kernel.cost.nvme_driver_ns)
        kernel.post("read", lba, sectors, kind="chain", chain=state,
                    span=state.span, path="chain", queue=state.queue,
                    tenant=kernel.tenant_of(state.proc))

    def _complete(self, state: ChainState, result: ReadResult) -> None:
        """Close the chain's root span (bus must be enabled)."""
        bus = self.kernel.bus
        bus.emit(obs_events.CHAIN_COMPLETE, self.kernel.sim.now,
                 hops=result.hops, status=result.status,
                 pid=state.proc.pid, span=state.span)
        bus.span_end(state.span, self.kernel.sim.now, status=result.status,
                     hops=result.hops)

    def start_chain(self, proc: Process, file: File, offset: int,
                    length: int, hook_state: dict):
        """Generator: ``sys_pread``'s NVMe-hook path (thread context,
        syscall entry already charged).

        Runs the first hop through the full stack, then blocks while the
        chain progresses in interrupt context; closes the root span the
        syscall opened (``hook_state["span"]``).  Returns a ReadResult.
        """
        kernel = self.kernel
        cost = kernel.cost
        bus = kernel.bus
        waiter = kernel.sim.event()
        state, segments = yield from self._begin(
            proc, file, offset, length, hook_state.get("args", ()),
            hook_state.get("scratch_init", b""), waiter.succeed,
            hook_state["span"])
        if len(segments) > 1:
            # First hop already spans discontiguous extents: do it as a
            # normal BIO and let the application restart the chain (§4).
            # A media error ends the read as EIO.
            try:
                data = yield from kernel.transfer(
                    "read", segments, what="chain read", span=state.span,
                    path="chain", queue=state.queue,
                    tenant=kernel.tenant_of(proc))
                self.split_fallbacks += 1
                result = ReadResult(data, status=ChainStatus.SPLIT_FALLBACK,
                                    final_offset=offset,
                                    scratch=bytes(state.scratch))
            except IoError:
                result = ReadResult(b"", status=ChainStatus.EIO,
                                    final_offset=offset,
                                    scratch=bytes(state.scratch))
        else:
            yield from self._first_hop(state, *segments[0])
            result = yield waiter
        yield from kernel.cpus.run_thread(cost.context_switch_ns)
        if bus.enabled:
            bus.emit(obs_events.CONTEXT_SWITCH, kernel.sim.now,
                     cpu_ns=cost.context_switch_ns, span=state.span,
                     path="chain")
            self._complete(state, result)
        return result

    def submit_uring_chain(self, proc: Process, file: File, sqe,
                           post_cqe: Callable[[Any, ReadResult], None],
                           span: int):
        """Generator: io_uring's NVMe-hook path (thread context); the chain
        closes the SQE's root ``span`` when it delivers."""
        kernel = self.kernel

        def deliver(result: ReadResult) -> None:  # runs after _begin
            if kernel.bus.enabled:
                self._complete(state, result)
            post_cqe(sqe.user_data, result)

        state, segments = yield from self._begin(
            proc, file, sqe.offset, sqe.length, sqe.args, sqe.scratch_init,
            deliver, span)
        if len(segments) > 1:
            # Split first hop: complete as a normal read with fallback
            # status.
            yield from kernel.gather(
                segments, kernel.cpus.run_thread,
                partial(self._finish_split, state), span=state.span,
                path="chain", queue=state.queue, tenant=kernel.tenant_of(proc))
            self.split_fallbacks += 1
            return
        yield from self._first_hop(state, *segments[0])

    # -- completion side ---------------------------------------------------

    @staticmethod
    def _finish_split(state: ChainState, data: Optional[bytes]) -> None:
        """Deliver a split read gathered in the chain's name: the freshly
        fetched buffer as SPLIT_FALLBACK (the application runs the program
        itself and restarts the chain), or EIO if a segment failed."""
        state.hops += 1
        if data is None:
            state.fail(ChainStatus.EIO)
            return
        state.finish(ReadResult(data, status=ChainStatus.SPLIT_FALLBACK,
                                hops=state.hops, final_offset=state.offset,
                                scratch=bytes(state.scratch)))

    def handle_completion(self, command: NvmeCommand) -> None:
        """Every completion whose cookie.kind == "chain" (the kernel calls
        this through its ``chains`` slot).

        The chain's first completion starts its interrupt-context process;
        every later one wakes it.  The wake is queued exactly where
        starting a fresh process would queue its starter, so the dispatch
        order does not depend on how hops map onto processes.
        """
        state: ChainState = command.cookie.chain
        wake = state.wake
        if wake is None:
            self.kernel.sim.start(self._irq_chain(state, command),
                                  "chain-irq")
        else:
            state.wake = None
            wake.succeed()

    def _irq_chain(self, state: ChainState, command: NvmeCommand):
        """Generator: every hop of one chain, in interrupt context.  Between
        hops it waits on ``state.wake`` for the recycled descriptor.

        The one way out of interrupt context: every command the chain
        sends from here (the program's recycle, a fault retry, a mid-chain
        split's gather) meets a powered-off device by ending the chain
        ``EIO``, as a completion failed by the power cut does.
        """
        event = self.kernel.sim.event
        try:
            while (yield from self._irq_hop(state, command)):
                state.wake = wake = event()
                yield wake
        except PowerLossError:
            state.fail(ChainStatus.EIO)

    def _irq_hop(self, state: ChainState, command: NvmeCommand):
        """Generator: one completed hop.  Returns True if ``command`` went
        back out (resubmission or retry), False once the chain has been
        delivered or handed to a split read."""
        kernel = self.kernel
        cost = kernel.cost
        bus = kernel.bus
        install = state.install
        state.hops += 1
        kernel.irq_count += 1
        queue = state.queue
        hop_span = 0
        if bus.enabled:
            hop_span = bus.span_start("chain_hop", kernel.sim.now,
                                      parent=state.span, hop=state.hops,
                                      path="chain")
            bus.emit(obs_events.CHAIN_HOP, kernel.sim.now, hop=state.hops,
                     offset=state.offset, pid=state.proc.pid,
                     span=hop_span, parent=state.span, path="chain")
        try:
            yield from kernel.run_irq(cost.irq_entry_ns, queue)
            if bus.enabled:
                bus.emit(obs_events.IRQ_ENTRY, kernel.sim.now,
                         cpu_ns=cost.irq_entry_ns, span=hop_span,
                         path="chain")

            if command.status != 0:
                return (yield from self._handle_faulted_hop(
                    state, command, hop_span))
            state.attempts = 0

            entry = install.cache_entry
            if self._snapshot_lost(state, entry):
                return False

            next_offset, result = yield from self.verdict(
                state, command.data, partial(kernel.run_irq, queue=queue),
                "nvme", hop_span, "chain")
            if result is not None:
                if result.ok:
                    self.chains_completed += 1
                state.finish(result)
                return False
            translation = entry.translate(next_offset, state.length,
                                          span=hop_span)
            state.offset = next_offset
            if translation.status == Translation.MISS:
                self.extent_aborts += 1
                state.fail(ChainStatus.EXTENT_INVALIDATED)
                return False
            if translation.status == Translation.SPLIT:
                # Granularity mismatch (§4): perform the split I/O as a
                # normal BIO from the completion path and hand the *new*
                # buffer to the application, which runs the function
                # itself and restarts the chain at the next hop.
                self.split_fallbacks += 1
                yield from kernel.run_irq(cost.bio_ns, queue)
                if self._snapshot_lost(state, entry):
                    return False
                segments = kernel.fs.map_range(state.file.inode,
                                               next_offset, state.length,
                                               span=hop_span, path="chain",
                                               resolve_ns=0)
                if bus.enabled:
                    bus.emit(obs_events.BIO_SUBMIT, kernel.sim.now,
                             cpu_ns=cost.bio_ns, segments=len(segments),
                             span=hop_span, path="chain")
                    bus.emit(obs_events.BIO_SPLIT, kernel.sim.now,
                             segments=len(segments), span=hop_span,
                             path="chain")
                yield from kernel.gather(
                    segments, partial(kernel.run_irq, queue=queue),
                    partial(self._finish_split, state), span=hop_span,
                    path="chain", queue=queue,
                    tenant=kernel.tenant_of(state.proc))
                return False
            self.accounting.charge(state.proc)
            install.resubmissions += 1
            qos = kernel.qos
            if qos is not None:
                # Pace this tenant's chain storm: the resubmission still
                # happens, but beyond the configured rate it waits out a
                # deterministic delay first, so the IRQ path cannot be
                # monopolised by one tenant.
                delay = qos.chain_pace(kernel.tenant_of(state.proc),
                                       span=hop_span)
                if delay:
                    yield kernel.sim.timeout(delay)
            yield from kernel.run_irq(cost.nvme_driver_ns, queue)
            if self._snapshot_lost(state, entry):
                return False
            # repost() preserves command.queue, so the recycled hop goes
            # back out on the pair it arrived on and its next completion
            # fires on the same core's vector (core-local, never crossing
            # the CpuSet contention point).  It moves the command into
            # this hop's span: the next completion charges its device time
            # here, making "which layers did this hop touch" directly
            # readable.
            kernel.repost(command, translation.lba, translation.sectors,
                          "bpf-recycle", hop_span)
            return True
        except GeneratorExit:
            hop_span = 0  # abandoned mid-flight: the hop never ended
            raise
        finally:
            if hop_span:
                bus.span_end(hop_span, kernel.sim.now)

    def _snapshot_lost(self, state: ChainState, entry) -> bool:
        """End the chain ``EEXTENT`` if the extent snapshot ``entry`` is
        gone (None) or invalidated; True when it did.

        Called at the hop's entry and again immediately before every send
        from interrupt context (a recycle, a fault retry, a split's
        ``map_range``): simulated time passes in between (the program's
        run, QoS pacing, the driver charge, a retry's backoff), and an
        unmap in that window must not let the chain reach freed blocks.
        """
        if entry is not None and entry.valid:
            return False
        self.extent_aborts += 1
        state.fail(ChainStatus.EXTENT_INVALIDATED)
        return True

    def _handle_faulted_hop(self, state: ChainState, command: NvmeCommand,
                            hop_span: int):
        """Recover a failed chain read in IRQ context.

        :meth:`Kernel.retry_verdict` reads the failure.  A granted retry
        recycles the same descriptor after its backoff, charged against
        the per-process resubmission bound exactly like a program-driven
        hop.  After a power failure the chain ends ``EIO``.  When the
        bound or the retry budget runs out, the chain degrades gracefully:
        it is handed back to the application (``FAULT_FALLBACK``, like the
        split fallback) instead of killing the request with a hard error.
        Returns True if the descriptor went back out.
        """
        kernel = self.kernel
        bus = kernel.bus
        reason, backoff = kernel.retry_verdict(
            command, state.attempts + 1,
            self.accounting.may_resubmit(state.proc, state.hops), hop_span,
            "chain")
        if backoff is not None:
            state.attempts += 1
            self.accounting.charge(state.proc)
            self.fault_retries += 1
            if backoff:
                yield kernel.sim.timeout(backoff)
            yield from kernel.run_irq(kernel.cost.nvme_driver_ns, state.queue)
            if self._snapshot_lost(state, state.install.cache_entry):
                return False
            kernel.repost(command, command.lba, command.sectors,
                          "chain-retry", hop_span)
            return True
        if reason == "power":
            state.fail(ChainStatus.EIO)
            return False
        # Budget exhausted: degrade to user space with the continuation
        # (offset + scratch) so a robust caller restarts a fresh bounded
        # chain from the faulted hop.
        self.fault_fallbacks += 1
        if bus.enabled:
            bus.emit(obs_events.CHAIN_FALLBACK, kernel.sim.now,
                     pid=state.proc.pid, hops=state.hops,
                     offset=state.offset, reason=reason, span=hop_span,
                     path="chain")
        state.finish(ReadResult(b"", status=ChainStatus.FAULT_FALLBACK,
                                hops=state.hops, final_offset=state.offset,
                                scratch=bytes(state.scratch)))
        return False

    # ------------------------------------------------------------------
    # Syscall-dispatch hook
    # ------------------------------------------------------------------

    def syscall_hook(self, proc: Process, file: File, offset: int,
                     result: ReadResult, hook_state: dict):
        """Generator: one step of ``sys_pread``'s dispatch loop on a
        syscall-hook installation (thread context).

        Runs the program over the completed read.  Returns
        ``(next_offset, None)`` to reissue without returning to user
        space, or ``(None, result)`` to end the read.
        """
        kernel = self.kernel
        state = hook_state.get("chain")
        if state is None:
            state = ChainState(proc, file, file.bpf_install, offset,
                               len(result.data), hook_state.get("args", ()),
                               hook_state.get("scratch_init", b""), None)
            hook_state["chain"] = state
        state.offset = offset
        state.hops += 1
        span = hook_state["span"]
        next_offset, final = yield from self.verdict(
            state, result.data, kernel.cpus.run_thread, "syscall", span,
            "syscall")
        if final is None:
            self.accounting.charge(proc)
            state.install.resubmissions += 1
            if kernel.bus.enabled:
                kernel.bus.emit(obs_events.CHAIN_HOP, kernel.sim.now,
                                hop=state.hops, offset=next_offset,
                                pid=proc.pid, span=span, parent=span,
                                path="syscall")
        return next_offset, final
