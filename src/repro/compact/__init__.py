"""In-kernel LSM compaction offload via BPF chains (paper §4).

User-space compaction is the paper's "auxiliary I/O" tax writ large:
every merged block crosses the syscall (or network) boundary twice —
once up to be merged, once back down to be rewritten.  This package
pushes the merge itself into the completion path: a verified merge
program walks each input SSTable's data pages as one installed chain,
streaming entries into a kernel-side merge sink through the
``compact_emit``/``compact_drop`` helpers, so only two scalar counters
per table ever surface to user space.  A remote mode runs the whole
compaction server-side on a :class:`~repro.net.StorageTarget` via a
single COMPACT RPC (the BPF-oF/RESYSTANCE shape).

* :func:`~repro.compact.programs.sstable_merge_program` — the
  chain-installable k-way merge leg (one chain per input run).
* :class:`~repro.compact.engine.CompactionEngine` — plans, executes
  (user-space or offloaded), and installs compactions on a
  :class:`~repro.structures.LsmTree`, with boundary-byte accounting.
* :class:`~repro.structures.lsm.MergeSink` — the merge fold: the
  helpers feed it in the kernel, user-space compaction feeds it the
  pages it read up, and the tree's own compaction feeds it its tables.
"""

from repro.compact.engine import CompactionEngine, CompactionReport
from repro.compact.programs import sstable_merge_program
from repro.structures.lsm import MergeSink

__all__ = [
    "CompactionEngine",
    "CompactionReport",
    "MergeSink",
    "sstable_merge_program",
]
