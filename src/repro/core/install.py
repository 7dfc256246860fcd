"""Per-descriptor BPF attachment state (what the install ioctl creates).

An installation binds a *verified* program to an open file description,
fixes the chain read size (one block buffer is recycled hop to hop, so all
hops read the same length), snapshots the file's extents into the NVMe-layer
cache, and pre-instantiates the VM so per-invocation cost is just execution.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.ebpf.program import Program
from repro.ebpf.vm import Vm, VmEnvironment
from repro.errors import InvalidArgument, VerifierError
from repro.core.extent_cache import CacheEntry
from repro.core.hooks import CTX_SIZE, Hook, storage_ctx_layout

__all__ = ["BpfInstallation", "IOCTL_INSTALL_BPF", "IOCTL_REFRESH_EXTENTS",
           "IOCTL_UNINSTALL_BPF"]

# ioctl opcodes for the special install ioctl of §4.
IOCTL_INSTALL_BPF = 0xB7F0
IOCTL_UNINSTALL_BPF = 0xB7F1
IOCTL_REFRESH_EXTENTS = 0xB7F2


class BpfInstallation:
    """One attached program plus its runtime state."""

    def __init__(self, program: Program, hook: Hook, block_size: int,
                 scratch_size: int, env: VmEnvironment,
                 default_args: Tuple[int, ...] = (),
                 vm_mode: str = "block"):
        if not program.verified:
            raise VerifierError("install of unverified program")
        if block_size % 512 != 0 or block_size < 512:
            raise InvalidArgument("block_size must be a multiple of 512")
        if len(default_args) > 4:
            raise InvalidArgument("at most 4 default args")
        expected = storage_ctx_layout(block_size, scratch_size)
        if program.ctx_layout.size != CTX_SIZE or \
                program.ctx_layout.size != expected.size:
            raise InvalidArgument(
                "program context layout is not the storage layout")
        data_field = program.ctx_layout.by_name.get("data")
        if data_field is None or data_field.region_size != block_size:
            raise InvalidArgument(
                f"program expects {data_field.region_size if data_field else '?'}B "
                f"blocks but installation uses {block_size}B")
        scratch_field = program.ctx_layout.by_name.get("scratch")
        if scratch_field is None or scratch_field.region_size != scratch_size:
            raise InvalidArgument("scratch size mismatch with program layout")
        self.program = program
        self.hook = hook
        self.block_size = block_size
        self.scratch_size = scratch_size
        self.default_args = tuple(default_args) + (0,) * (4 - len(default_args))
        # Derived, never set: which of the cost model's two per-instruction
        # constants (bpf_insn_jit_ns / bpf_insn_interp_ns) a run is charged.
        self.jit = vm_mode != "interp"
        self.vm = Vm(program, env, mode=vm_mode)
        #: Set by the install ioctl (NVMe hook installs snapshot extents).
        self.cache_entry: Optional[CacheEntry] = None
        # Statistics.
        self.invocations = 0
        self.resubmissions = 0

    @property
    def hook_kind(self) -> str:
        """Duck-typed contract with the kernel's dispatch check."""
        return self.hook.value

    def __repr__(self) -> str:
        return (f"BpfInstallation({self.program.name!r}, {self.hook.value}, "
                f"block={self.block_size})")
