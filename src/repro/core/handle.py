"""First-class chain handles: one object owning fd + installation.

The raw :class:`~repro.core.api.StorageBpf` facade mirrors the syscall
surface of §4 — open, install ioctl, tagged reads — but applications end
up threading ``(proc, fd)`` pairs through every call and re-implementing
teardown.  :class:`ChainHandle` packages that lifecycle: it is created by
:meth:`StorageBpf.open_chain`, remembers the process, descriptor, and
installed program, and exposes the chain operations as methods whose
block size defaults to the installation's.

Methods that consume simulated time (``read``, ``read_robust``,
``refresh``, ``close``) are generators meant to run inside a simulated
thread, exactly like the facade methods they delegate to.  ``close`` is
idempotent.  The context-manager protocol performs an *untimed* teardown
(drop the extent-cache entry, detach the program, release the fd) so a
``with`` block can guarantee cleanup even outside a running simulation.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.errors import BadFileDescriptor

__all__ = ["ChainHandle"]


class ChainHandle:
    """Owns the fd and BPF installation behind one chain-read endpoint."""

    def __init__(self, bpf, proc, fd: int):
        self.bpf = bpf
        self.proc = proc
        self.fd = fd
        self.closed = False

    # -- introspection ---------------------------------------------------

    @property
    def installation(self):
        """The live :class:`BpfInstallation`, or None after close."""
        if self.closed:
            return None
        try:
            return self.proc.file(self.fd).bpf_install
        except BadFileDescriptor:
            return None

    @property
    def block_size(self) -> int:
        """The installed block size (chain reads must use it)."""
        installation = self.installation
        if installation is None:
            raise BadFileDescriptor(f"handle fd {self.fd} is closed")
        return installation.block_size

    # -- chain operations (generators) -----------------------------------

    def read(self, offset: int, length: Optional[int] = None,
             args: Tuple[int, ...] = (), scratch_init: bytes = b""):
        """One tagged read; ``length`` defaults to the installed block."""
        if length is None:
            length = self.block_size
        result = yield from self.bpf.read_chain(self.proc, self.fd, offset,
                                                length, args, scratch_init)
        return result

    def read_robust(self, offset: int, length: Optional[int] = None,
                    args: Tuple[int, ...] = (), scratch_init: bytes = b"",
                    max_retries: int = 8):
        """The §4 recovery protocol (refresh on EEXTENT, user-space
        fallback on splits) over this handle's descriptor."""
        if length is None:
            length = self.block_size
        result = yield from self.bpf.read_chain_robust(
            self.proc, self.fd, offset, length, args, scratch_init,
            max_retries=max_retries)
        return result

    def refresh(self):
        """Re-push the file's extents after an EEXTENT invalidation."""
        result = yield from self.bpf.refresh(self.proc, self.fd)
        return result

    def close(self):
        """Uninstall the program and close the fd (idempotent)."""
        if self.closed:
            return 0
        self.closed = True
        yield from self.bpf.uninstall(self.proc, self.fd)
        yield from self.bpf.kernel.sys_close(self.proc, self.fd)
        return 0

    # -- context manager (untimed teardown) -------------------------------

    def __enter__(self) -> "ChainHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            file = self.proc.file(self.fd)
        except BadFileDescriptor:
            return
        if file.bpf_install is not None:
            self.bpf.cache.drop(file.bpf_install.cache_entry)
            file.bpf_install = None
        self.proc.close_fd(self.fd)

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"ChainHandle(fd={self.fd}, pid={self.proc.pid}, {state})"
