"""Per-layer CPU cost model (Table 1 plus calibrated constants).

The paper's Table 1 measures the average latency a 512 B random ``read()``
spends in each kernel layer on the Optane gen-2 testbed::

    kernel crossing   351 ns
    read syscall      199 ns
    ext4             2006 ns
    bio               379 ns
    NVMe driver       113 ns
    storage device   3224 ns

Those are the defaults here.  A handful of constants the paper's experiments
imply but Table 1 does not list (application-side per-lookup processing, IRQ
entry/exit, the blocked-thread wakeup path, io_uring submission costs, BPF
hook dispatch) are calibrated so the reproduced figures land in the paper's
reported bands; every one of them is a single field an ablation can perturb.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidArgument

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """CPU nanoseconds charged by each software layer."""

    # --- Table 1 ----------------------------------------------------------
    #: User/kernel boundary crossing, both directions combined.
    kernel_crossing_ns: int = 351
    #: Syscall dispatch layer (entry bookkeeping, fd lookup).
    syscall_ns: int = 199
    #: File system (ext4): extent lookup, permission checks, DIO setup.
    filesystem_ns: int = 2006
    #: Block layer: bio allocation, splitting, completion bookkeeping.
    bio_ns: int = 379
    #: NVMe driver: command build + doorbell (also per recycled resubmit).
    nvme_driver_ns: int = 113

    # --- calibrated constants (not in Table 1) ----------------------------
    #: Application-side work per dependent lookup: parse the fetched page,
    #: compute the next offset, re-enter the syscall.  Sets the baseline's
    #: user-space share and calibrates Figure 3a's ~1.25x ceiling.
    user_process_ns: int = 1200
    #: Interrupt entry/exit plus completion bookkeeping per completion that
    #: is handled in IRQ context (blocked-thread, io_uring, and BPF-chain
    #: paths).
    irq_entry_ns: int = 250
    #: Fixed cost of dispatching a BPF hook (context setup, tag check).
    bpf_dispatch_ns: int = 80
    #: Per-instruction cost of the BPF interpreter.
    bpf_insn_interp_ns: int = 4
    #: Per-instruction cost of JIT-compiled BPF.
    bpf_insn_jit_ns: int = 1
    #: Blocking a thread and waking it on completion (schedule out + in).
    context_switch_ns: int = 2000
    #: io_uring_enter: one boundary crossing + ring bookkeeping per call.
    iouring_enter_ns: int = 400
    #: Per-SQE submission bookkeeping inside io_uring.
    iouring_sqe_ns: int = 150
    #: Per-CQE reap cost (app side, amortised batch handling).
    iouring_reap_ns: int = 300
    #: Extent-cache install/refresh cost for one ioctl (paper §4).
    ioctl_install_ns: int = 2500
    #: Sync reads spin/poll when device latency is below this (hybrid
    #: polling on low-microsecond devices, as on the paper's testbed; both
    #: Optane generations poll, NAND and HDD block on interrupts).
    poll_threshold_ns: int = 25_000

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise InvalidArgument(f"cost {name} is negative")

    # -- derived ------------------------------------------------------------

    def bpf_run_ns(self, instructions: int, jit: bool) -> int:
        """CPU cost of one hook invocation executing ``instructions``."""
        per_insn = self.bpf_insn_jit_ns if jit else self.bpf_insn_interp_ns
        return self.bpf_dispatch_ns + instructions * per_insn
