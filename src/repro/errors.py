"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without catching programming mistakes.  Kernel-path
errors additionally carry an ``errno``-style code mirroring the constants a
real kernel would return (the paper's design returns errors such as the
extent-invalidation error to the application, which must re-run the ioctl).
"""

from __future__ import annotations

import enum


class Errno(enum.IntEnum):
    """Typed errno codes shared by local, net, and cluster paths.

    Values mirror Linux where a Linux errno exists; repro-specific
    conditions (extent invalidation, chain limits, ...) live in a
    private range >= 1000 so they can never collide with a real errno.
    Members compare equal to their integer value, and ``Errno[name]``
    maps the wire-format errno *name* back to the typed code, so clients
    can switch on ``error.errno`` instead of parsing message strings.
    """

    ENOENT = 2
    EIO = 5
    EBADF = 9
    EAGAIN = 11
    EEXIST = 17
    ENOTDIR = 20
    EISDIR = 21
    EINVAL = 22
    ENOSPC = 28
    EREMOTE = 66
    EBADMSG = 74
    ETIMEDOUT = 110
    # -- repro-specific codes (no Linux equivalent) ---------------------
    EVERIFY = 1001
    EEXTENT = 1002
    ECHAINLIM = 1003
    ENOPROG = 1004
    EPOWERFAIL = 1005
    EFSCORRUPT = 1006
    ENET = 1007

    @classmethod
    def from_name(cls, name: str) -> "Errno":
        """Map an errno *name* to its typed code (unknown -> EREMOTE)."""
        try:
            return cls[name]
        except KeyError:
            return cls.EREMOTE


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


# ---------------------------------------------------------------------------
# Simulation engine errors
# ---------------------------------------------------------------------------


class SimulationError(ReproError):
    """A misuse of the discrete-event simulation engine."""


# ---------------------------------------------------------------------------
# eBPF subsystem errors
# ---------------------------------------------------------------------------


class BpfError(ReproError):
    """Base class for eBPF assembler/verifier/VM errors."""


class AssemblerError(BpfError):
    """The textual assembly could not be parsed or encoded."""


class VerifierError(BpfError):
    """The static verifier rejected a program.

    Mirrors the kernel's behaviour of refusing to load an unsafe program;
    carries a human-readable reason referencing the offending instruction.
    """

    errno = Errno.EVERIFY

    def __init__(self, reason: str, pc: int = -1):
        self.reason = reason
        self.pc = pc
        location = f" at insn {pc}" if pc >= 0 else ""
        super().__init__(f"verifier rejected program{location}: {reason}")


class VmFault(BpfError):
    """The VM trapped at run time (out-of-bounds access, bad helper, ...).

    A verified program should never raise this; the fault check is defence in
    depth, exactly like the kernel keeping runtime bounds checks for helper
    arguments.
    """

    def __init__(self, reason: str, pc: int = -1):
        self.reason = reason
        self.pc = pc
        location = f" at insn {pc}" if pc >= 0 else ""
        super().__init__(f"VM fault{location}: {reason}")


# ---------------------------------------------------------------------------
# Storage / kernel errors (errno-style)
# ---------------------------------------------------------------------------


class KernelError(ReproError):
    """An error returned by the simulated kernel, with an errno-like code."""

    errno_name = "EIO"

    def __init__(self, message: str = ""):
        detail = f": {message}" if message else ""
        super().__init__(f"[{self.errno_name}]{detail}")

    @property
    def errno(self) -> Errno:
        """The typed :class:`Errno` code matching :attr:`errno_name`."""
        return Errno.from_name(self.errno_name)


class BadFileDescriptor(KernelError):
    errno_name = "EBADF"


class FileNotFound(KernelError):
    errno_name = "ENOENT"


class FileExists(KernelError):
    errno_name = "EEXIST"


class NotADirectory(KernelError):
    errno_name = "ENOTDIR"


class IsADirectory(KernelError):
    errno_name = "EISDIR"


class NoSpace(KernelError):
    errno_name = "ENOSPC"


class InvalidArgument(KernelError):
    errno_name = "EINVAL"


class IoError(KernelError):
    errno_name = "EIO"


class ExtentInvalidated(KernelError):
    """The NVMe-layer extent cache was invalidated mid-chain (paper §4).

    The application must re-run the install ioctl to refresh the soft-state
    extent cache before reissuing tagged I/Os.
    """

    errno_name = "EEXTENT"


class PowerLossError(KernelError):
    """The simulated device lost power.

    Raised by :meth:`~repro.device.nvme.NvmeDevice.submit` once the device
    is powered off, which unwinds the running workload generator — exactly
    how the crash-point harness stops a workload mid-operation.  Un-flushed
    volatile-cache contents are already gone by the time this is raised.
    """

    errno_name = "EPOWERFAIL"


class JournalCorrupt(KernelError):
    """On-media metadata (superblock/checkpoint) failed its checksum.

    A torn or corrupt *journal txn* is not an error — replay discards it —
    but a superblock or checkpoint that cannot be read leaves nothing to
    recover from.
    """

    errno_name = "EFSCORRUPT"


class NotInstalled(KernelError):
    """A tagged I/O was issued on a descriptor without an installed program."""

    errno_name = "ENOPROG"


class QosRejected(KernelError):
    """Admission control refused work for a tenant that is over its rate.

    Typed backpressure, not failure: carries ``retry_after_ns`` — the
    simulated-time delay until the tenant's token bucket next holds a
    token — so callers (and remote clients, over the wire) can back off
    deterministically and retry instead of guessing.  ``errno`` is
    :attr:`Errno.EAGAIN`, matching the kernel convention for "try again".
    """

    errno_name = "EAGAIN"

    def __init__(self, message: str = "", *, retry_after_ns: int = 0,
                 tenant: str = ""):
        self.retry_after_ns = retry_after_ns
        self.tenant = tenant
        if not message:
            message = (f"tenant {tenant or '?'} over rate; retry after "
                       f"{retry_after_ns} ns")
        super().__init__(message)


# ---------------------------------------------------------------------------
# Network / RPC errors (repro.net)
# ---------------------------------------------------------------------------


class NetError(KernelError):
    """Base class for errors raised by the simulated network layer."""

    errno_name = "ENET"


class FramingError(NetError):
    """A frame failed to decode (bad magic, truncated body, unknown op)."""

    errno_name = "EBADMSG"


class RpcTimeout(NetError):
    """An RPC exhausted its retransmission budget without a reply.

    Carries the structured facts a failover policy needs to branch on —
    which op timed out, after how many attempts, against which request
    id and per-attempt timeout — so callers (the cluster client's
    replica-promotion path in :mod:`repro.cluster`) never parse the
    message.  The rendered message keeps the historical
    ``"{op} request {id} unanswered after {n} attempts"`` format.
    """

    errno_name = "ETIMEDOUT"

    def __init__(self, message: str = "", *, op: str = "?",
                 request_id: int = 0, attempts: int = 0,
                 timeout_ns: int = 0):
        self.op = op
        self.request_id = request_id
        self.attempts = attempts
        self.timeout_ns = timeout_ns
        if not message:
            message = (f"{op} request {request_id} unanswered after "
                       f"{attempts} attempts")
        super().__init__(message)


class RemoteError(NetError):
    """The storage target refused an operation with an errno-style status.

    The target never crashes on a bad request; it maps the server-side
    exception to a status code carried in the reply frame, and the client
    re-raises it as this typed error (or a subclass) carrying the remote
    errno name and the human-readable reason.
    """

    errno_name = "EREMOTE"

    def __init__(self, remote_errno, reason: str = ""):
        #: Typed :class:`Errno` code the target refused with.  Accepts a
        #: wire-format errno name (or a bare code) for construction, but
        #: always *exposes* the typed member so clients switch on
        #: ``error.remote_errno is Errno.ENOENT`` across local, net, and
        #: cluster paths.
        if isinstance(remote_errno, Errno):
            self.remote_errno = remote_errno
        elif isinstance(remote_errno, int):
            self.remote_errno = Errno(remote_errno)
        else:
            self.remote_errno = Errno.from_name(remote_errno)
        self.reason = reason
        name = self.remote_errno.name
        detail = f"{name}: {reason}" if reason else name
        super().__init__(f"target refused: {detail}")


class RemoteVerifierRejected(RemoteError):
    """The target's server-side verifier rejected an INSTALL_CHAIN program.

    Mirrors BPF-oF: the target re-verifies untrusted client programs before
    attaching them to its NVMe hook, whatever the client claims.
    """

    errno_name = "EVERIFY"
