"""Process contexts and open-file descriptions.

A :class:`Process` owns a file-descriptor table; simulated application
threads run syscalls against the kernel under a process identity, which is
also what the per-process chained-resubmission accounting of §4 keys on.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.errors import BadFileDescriptor
from repro.kernel.extfs import Inode

__all__ = ["File", "Process"]


class File:
    """An open file description (what an fd points at).

    ``bpf_install`` is the per-descriptor BPF attachment slot used by the
    storage hooks (populated by :mod:`repro.core` through the install
    ioctl); the kernel itself never interprets it.
    """

    def __init__(self, inode: Inode, flags: int = 0, path: str = ""):
        self.inode = inode
        self.flags = flags
        self.path = path
        self.bpf_install: Optional[Any] = None

    def __repr__(self) -> str:
        return f"File({self.path!r}, ino={self.inode.number})"


class Process:
    """A process: pid, name, descriptor table, and tenant identity.

    ``tenant`` (a :class:`repro.qos.Tenant`, or ``None`` for untenanted
    processes) is the isolation domain the process charges its I/O to:
    fairness accounting, WFQ arbitration, and admission control all key
    on it.  Processes of one tenant come and go — per-connection target
    processes especially — while the tenant's accounting persists.
    """

    def __init__(self, pid: int, name: str = "", tenant: Optional[Any] = None):
        self.pid = pid
        self.name = name or f"proc-{pid}"
        self.tenant = tenant
        self._fds: Dict[int, File] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands

    def install_fd(self, file: File) -> int:
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = file
        return fd

    def file(self, fd: int) -> File:
        if fd not in self._fds:
            raise BadFileDescriptor(f"fd {fd} in {self.name}")
        return self._fds[fd]

    def close_fd(self, fd: int) -> File:
        if fd not in self._fds:
            raise BadFileDescriptor(f"fd {fd} in {self.name}")
        return self._fds.pop(fd)
