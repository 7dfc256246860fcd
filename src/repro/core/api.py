"""The user-facing BPF-for-storage library (the "library" of §4).

:class:`StorageBpf` attaches the whole mechanism to a simulated kernel and
exposes it the way the paper envisions applications consuming it:

* ``install`` — the special ioctl: verify-once, snapshot the file's extents
  into the NVMe-layer cache, tag the descriptor;
* ``read_chain`` — issue a tagged read whose dependent hops are resubmitted
  from the installed hook;
* ``read_chain_robust`` — the full recovery protocol: on ``EEXTENT`` it
  re-runs the ioctl and retries, on a split fallback it executes the very
  same program in user space over the returned buffer (charging user-side
  CPU) and restarts the chain at the next hop, exactly as §4 prescribes.

All methods that consume simulated time are generators meant to run inside
a simulated thread.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.ebpf.program import Program
from repro.ebpf.verifier import proof_context, verify
from repro.errors import (
    ExtentInvalidated,
    InvalidArgument,
    IoError,
    NotInstalled,
)
from repro.kernel import ChainStatus, Kernel, ReadResult
from repro.kernel.process import File, Process
from repro.core.accounting import ChainAccounting
from repro.core.chains import ChainEngine, ChainState
from repro.core.extent_cache import NvmeExtentCache
from repro.core.hooks import Hook, storage_helpers
from repro.core.handle import ChainHandle
from repro.core.install import (
    IOCTL_INSTALL_BPF,
    IOCTL_REFRESH_EXTENTS,
    IOCTL_UNINSTALL_BPF,
    BpfInstallation,
)
from repro.obs import events as obs_events

__all__ = ["InstallRequest", "StorageBpf"]


@dataclasses.dataclass(frozen=True)
class InstallRequest:
    """The argument struct handed to the install ioctl.

    Frozen: a request is a value handed across the syscall boundary, so
    mutating it after submission would be meaningless.  Construction
    validates the fields the kernel would reject anyway and raises
    :class:`InvalidArgument` naming the offending field, so callers fail
    at the call site rather than deep inside the ioctl handler.
    """

    program: Program
    hook: Hook = Hook.NVME
    block_size: int = 4096
    scratch_size: int = 256
    args: Tuple[int, ...] = ()
    #: Execution tier: "block" (the default) or "interp".
    vm_mode: str = "block"

    def __post_init__(self):
        if not isinstance(self.program, Program):
            raise InvalidArgument("program: expected a Program, got "
                                  f"{type(self.program).__name__}")
        if not isinstance(self.hook, Hook):
            raise InvalidArgument(f"hook: unknown hook {self.hook!r}")
        if self.block_size <= 0:
            raise InvalidArgument(
                f"block_size: must be positive, got {self.block_size}")
        if self.scratch_size <= 0:
            raise InvalidArgument(
                f"scratch_size: must be positive, got {self.scratch_size}")
        object.__setattr__(self, "args", tuple(self.args))
        if len(self.args) > 4:
            raise InvalidArgument(
                f"args: at most 4 install args, got {len(self.args)}")
        if self.vm_mode not in ("block", "interp"):
            raise InvalidArgument(
                f"vm_mode: unknown execution tier {self.vm_mode!r}")


class StorageBpf:
    """Glue object: one per simulated kernel."""

    def __init__(self, kernel: Kernel, max_chain_hops: int = 64):
        self.kernel = kernel
        self.helpers = storage_helpers()
        clock = lambda: kernel.sim.now  # noqa: E731
        self.cache = NvmeExtentCache(kernel.fs, bus=kernel.bus, clock=clock)
        self.accounting = ChainAccounting(max_chain_hops)
        self.accounting.bus = kernel.bus
        self.accounting.clock = clock
        self.engine = ChainEngine(kernel, self.cache, self.accounting)
        kernel.chains = self.engine
        kernel.ioctl_handlers[IOCTL_INSTALL_BPF] = self._ioctl_install
        kernel.ioctl_handlers[IOCTL_UNINSTALL_BPF] = self._ioctl_uninstall
        kernel.ioctl_handlers[IOCTL_REFRESH_EXTENTS] = self._ioctl_refresh

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------

    def verify_program(self, program: Program) -> Program:
        """Run the static verifier with the storage helper set."""
        verify(program, self.helpers)
        return program

    # ------------------------------------------------------------------
    # ioctl handlers (run with syscall entry already charged)
    # ------------------------------------------------------------------

    def _ioctl_install(self, proc: Process, file: File, arg):
        if not isinstance(arg, InstallRequest):
            raise InvalidArgument("install ioctl needs an InstallRequest")
        program = arg.program
        # An earlier proof counts only if it was made against these
        # helpers; anything else is proved again, here.
        if program.verified_against != proof_context(self.helpers):
            verify(program, self.helpers)
        installation = BpfInstallation(
            program, arg.hook, arg.block_size, arg.scratch_size, self.helpers,
            default_args=arg.args, vm_mode=arg.vm_mode)
        # Propagate the file's extents to the NVMe layer (paper §4).
        yield from self.kernel.cpus.run_thread(
            self.kernel.cost.ioctl_install_ns)
        if arg.hook is Hook.NVME:
            installation.cache_entry = self.cache.install(file.inode)
        if file.bpf_install is not None:
            self.cache.drop(file.bpf_install.cache_entry)
        file.bpf_install = installation
        return 0

    def _ioctl_uninstall(self, proc: Process, file: File, arg):
        yield from self.kernel.cpus.run_thread(self.kernel.cost.syscall_ns)
        if file.bpf_install is not None:
            self.cache.drop(file.bpf_install.cache_entry)
            file.bpf_install = None
        return 0

    def _ioctl_refresh(self, proc: Process, file: File, arg):
        """Re-push the file's extents after an EEXTENT error."""
        installation = file.bpf_install
        if installation is None:
            raise InvalidArgument("refresh ioctl on a plain descriptor")
        yield from self.kernel.cpus.run_thread(
            self.kernel.cost.ioctl_install_ns)
        replaced = installation.cache_entry
        installation.cache_entry = self.cache.install(file.inode)
        self.cache.drop(replaced)
        return 0

    # ------------------------------------------------------------------
    # Syscall-style entry points (generators)
    # ------------------------------------------------------------------

    def install(self, proc: Process, fd: int, program: Program,
                hook: Hook = Hook.NVME, block_size: int = 4096,
                scratch_size: int = 256, args: Tuple[int, ...] = (),
                vm_mode: str = "block"):
        """Install a program on ``fd`` via the special ioctl.

        Field validation (positive sizes, at most four args, a known
        ``vm_mode``) happens in :class:`InstallRequest`, which raises
        :class:`InvalidArgument` naming the offending field.
        """
        request = InstallRequest(program, hook=hook, block_size=block_size,
                                 scratch_size=scratch_size, args=args,
                                 vm_mode=vm_mode)
        result = yield from self.kernel.sys_ioctl(proc, fd,
                                                  IOCTL_INSTALL_BPF, request)
        return result

    def open_chain(self, proc: Process, path: str, program: Program,
                   hook: Hook = Hook.NVME, block_size: int = 4096,
                   scratch_size: int = 256, args: Tuple[int, ...] = (),
                   vm_mode: str = "block",
                   create: bool = False):
        """Open ``path`` and install ``program`` in one step.

        Generator returning a :class:`~repro.core.handle.ChainHandle`
        that owns the descriptor and the installation; use it as a
        context manager (or call its ``close`` generator) to tear both
        down.  If the install ioctl fails, the freshly opened fd is
        released before the error propagates, so no descriptor leaks.
        """
        fd = yield from self.kernel.sys_open(proc, path, create=create)
        try:
            yield from self.install(proc, fd, program, hook=hook,
                                    block_size=block_size,
                                    scratch_size=scratch_size, args=args,
                                    vm_mode=vm_mode)
        except Exception:
            proc.close_fd(fd)
            raise
        return ChainHandle(self, proc, fd)

    def refresh(self, proc: Process, fd: int):
        result = yield from self.kernel.sys_ioctl(proc, fd,
                                                  IOCTL_REFRESH_EXTENTS, None)
        return result

    def uninstall(self, proc: Process, fd: int):
        result = yield from self.kernel.sys_ioctl(proc, fd,
                                                  IOCTL_UNINSTALL_BPF, None)
        return result

    def read_chain(self, proc: Process, fd: int, offset: int, length: int,
                   args: Tuple[int, ...] = (), scratch_init: bytes = b""):
        """One tagged read: a ``sys_pread`` the installed hook drives.

        Checks what the chain needs (at most 4 args, an installation, a
        length equal to its block size), then enters the kernel like any
        tagged read, carrying the args and scratch in the hook state.
        """
        if len(args) > 4:
            raise InvalidArgument("at most 4 per-read args")
        installation: Optional[BpfInstallation] = proc.file(fd).bpf_install
        if installation is None:
            raise NotInstalled(f"fd {fd} has no installed program")
        if length != installation.block_size:
            raise InvalidArgument(
                f"chain reads recycle one descriptor: length {length} must "
                f"equal the installed block size {installation.block_size}")
        result = yield from self.kernel.sys_pread(
            proc, fd, offset, length, tagged=True,
            hook_state={"args": args, "scratch_init": scratch_init})
        return result

    # ------------------------------------------------------------------
    # The robust protocol (EEXTENT retry + split fallback restart)
    # ------------------------------------------------------------------

    def read_chain_robust(self, proc: Process, fd: int, offset: int,
                          length: int, args: Tuple[int, ...] = (),
                          scratch_init: bytes = b"",
                          max_retries: int = 8):
        """A chain read that survives invalidations, split fallbacks, and
        the fairness bound.

        * ``EEXTENT`` → re-run the ioctl (refresh) and retry from scratch;
        * ``SPLIT_FALLBACK`` → execute the program in user space over the
          buffer the kernel fetched, then restart the chain at the next hop;
        * ``FAULT_FALLBACK`` → a faulted hop exhausted the in-kernel retry
          budget and the kernel degraded gracefully: restart a fresh
          bounded chain from the faulted hop (the transient episode
          recovers under the fault plan's burst semantics);
        * ``CHAIN_LIMIT`` → start a fresh bounded chain from where the
          killed one stopped (each kernel chain stays within the fairness
          bound).

        Returns the final OK ReadResult or raises after ``max_retries``
        recovery attempts; a program asking for an action the hooks do
        not define (``EINVAL``) raises :class:`InvalidArgument`.
        """
        current_offset = offset
        current_scratch = scratch_init
        total_hops = 0
        last_status = None
        for _attempt in range(max_retries):
            result = yield from self.read_chain(proc, fd, current_offset,
                                                length, args,
                                                current_scratch)
            total_hops += result.hops
            last_status = result.status
            if result.status == ChainStatus.SPLIT_FALLBACK:
                # Run the program *in user space* over the returned buffer
                # and restart the kernel chain at the next hop, unless it
                # ended the chain here.
                next_offset, final, current_scratch = \
                    yield from self._user_space_step(proc, fd, result, args)
                if final is None:
                    current_offset = next_offset
                    continue
                result = final
            if result.ok:
                result.hops = total_hops
                return result
            if result.status == ChainStatus.EXTENT_INVALIDATED:
                # §4: re-run the ioctl to reset the NVMe-layer extents,
                # then reissue.
                yield from self.refresh(proc, fd)
                current_offset = offset
                current_scratch = scratch_init
                total_hops = 0
                continue
            if result.status == ChainStatus.EIO:
                raise IoError(
                    f"media error during chain at offset "
                    f"{result.final_offset}")
            if result.status in (ChainStatus.FAULT_FALLBACK,
                                 ChainStatus.CHAIN_LIMIT):
                # The kernel degraded a faulted chain or killed one at the
                # fairness bound; restart a fresh bounded chain from the
                # hop where it stopped, keeping the scratch continuation.
                current_offset = result.final_offset
                current_scratch = result.scratch or b""
                continue
            raise InvalidArgument(f"unexpected chain status {result.status}")
        if last_status == ChainStatus.FAULT_FALLBACK:
            raise IoError(
                f"chain did not recover from injected faults after "
                f"{max_retries} attempts (offset {current_offset})")
        raise ExtentInvalidated(
            f"chain did not settle after {max_retries} retries")

    def _user_space_step(self, proc: Process, fd: int, result: ReadResult,
                         args: Tuple[int, ...]):
        """Generator: one hop of the program in user space (fallback path).

        ``result`` is a SPLIT_FALLBACK whose data is the block at
        ``result.final_offset`` that the kernel fetched as a normal BIO but
        did not run the program on.  Returns ``(next_offset, final,
        scratch)``: ``final`` is None and the chain restarts at
        ``next_offset`` with ``scratch``, or ``final`` is the ReadResult
        the program ended the chain with.
        """
        kernel = self.kernel
        cost = kernel.cost
        file = proc.file(fd)
        state = ChainState(proc, file, file.bpf_install, result.final_offset,
                           len(result.data), args, result.scratch or b"",
                           None)
        state.hops = result.hops

        def charge(bpf_ns: int):
            # The application's processing and its run of the program.
            yield from kernel.cpus.run_thread(cost.user_process_ns + bpf_ns)
            if kernel.bus.enabled:
                kernel.bus.emit(obs_events.APP_PROCESS, kernel.sim.now,
                                cpu_ns=cost.user_process_ns, path="chain")

        next_offset, final = yield from self.engine.verdict(
            state, result.data, charge, "user", 0, "chain")
        return next_offset, final, bytes(state.scratch)
