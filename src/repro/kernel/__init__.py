"""The simulated Linux storage stack.

Layer costs come from the paper's Table 1; the layers themselves really move
bytes: the extent file system maps file offsets to physical blocks, the BIO
layer splits I/Os across discontiguous extents, and the NVMe driver talks to
the device model and handles completion interrupts.  The paper's
BPF-for-storage mechanism plugs in through one slot, ``Kernel.chains``
(the chain engine), and the ioctl handlers, both filled in by
:mod:`repro.core`, keeping the kernel ignorant of BPF exactly as the
layering in the paper prescribes.

Crash consistency lives in :mod:`repro.kernel.journal` (write-ahead
metadata journal + checkpoints) and :mod:`repro.kernel.recovery`
(mount-after-crash replay and the fsck invariant checker); the kernel's
``sys_fsync`` and ``crash``/``recover`` lifecycle tie them to the NVMe
device's volatile write cache.
"""

from repro.kernel.extent import Extent, ExtentTree
from repro.kernel.extfs import ExtFs
from repro.kernel.iouring import IoUring
from repro.kernel.journal import Journal, JournalConfig, serialize_fs
from repro.kernel.kernel import (
    ChainStatus,
    Kernel,
    KernelConfig,
    ReadResult,
)
from repro.kernel.layers import CostModel
from repro.kernel.process import File, Process
from repro.kernel.recovery import FsckReport, RecoveryReport, fsck, reload_fs

__all__ = [
    "ChainStatus",
    "CostModel",
    "Extent",
    "ExtentTree",
    "ExtFs",
    "File",
    "FsckReport",
    "IoUring",
    "Journal",
    "JournalConfig",
    "Kernel",
    "KernelConfig",
    "Process",
    "ReadResult",
    "RecoveryReport",
    "fsck",
    "reload_fs",
    "serialize_fs",
]
