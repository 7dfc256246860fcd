"""The compaction engine: plan, merge (user-space or in-kernel), install.

``CompactionEngine`` executes :class:`~repro.structures.CompactionPlan`
snapshots in one of two local modes:

* ``"user"`` — the classic shape the paper taxes: every input page is
  ``pread(2)``-ed into user space, merged by the application, and the
  merged table is written back down — every byte crosses the syscall
  boundary twice (the write-amplification RESYSTANCE measures).
* ``"offloaded"`` — one installed chain per input run walks the data
  pages in the NVMe completion path and streams entries into a shared
  kernel-side :class:`MergeSink` via the ``compact_emit`` /
  ``compact_drop`` helpers; only two u64 counters per run surface to
  user space.  The rewrite of the merged run likewise stays below the
  boundary (the engine still drives it through the write syscall path
  for device/fs timing, but the payload originates in the kernel sink,
  so it is accounted as kernel-side bytes, not boundary crossings).

A third, remote mode lives in :mod:`repro.net`: ``RemoteClient.compact``
ships the whole plan to a ``StorageTarget`` as a single COMPACT RPC and
the target runs this engine in ``"offloaded"`` mode server-side.

QoS: the engine's work is always keyed as *system* traffic (the
kernel's never-refused, never-paced class), so background compaction is
not starved by tenant shaping — exactly like repair traffic.

Metrics: every compaction emits ``compact_start`` / ``compact_complete``
on the kernel's bus; ``attach_standard_metrics`` derives the
``compact_*`` counters from the latter.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from repro.core import Hook
from repro.errors import InvalidArgument
from repro.compact.programs import sstable_merge_program
from repro.obs import events as obs_events
from repro.structures import FsBackend, MemoryBackend, SsTable
from repro.structures.lsm import TOMBSTONE
from repro.structures.pages import PAGE_SIZE, SSTABLE_DATA_MAGIC, decode_page

__all__ = ["CompactionEngine", "CompactionReport", "MergeSink"]

#: Bytes that cross the syscall boundary per offloaded run: the two u64
#: scalar results (emitted, dropped) of the terminating chain hop.
SCALAR_RESULT_BYTES = 16

#: Scratch bytes of the merge program: the emitted and dropped counters.
SCRATCH_SIZE = 64


class MergeSink:
    """The k-way merge fold both modes stream entries into.

    The offloaded mode feeds it from the kernel through the compact
    helpers, the user mode from the pages it read up.  Runs are
    streamed oldest first, so a plain upsert gives newer entries
    precedence, and ``drop`` retires a bottom-level tombstoned key.
    The running counters are what the merge program mirrors into its
    scratch area and returns through result/result2.
    """

    __slots__ = ("entries", "emitted", "dropped")

    def __init__(self):
        self.entries: Dict[int, int] = {}
        self.emitted = 0
        self.dropped = 0

    def emit(self, key: int, value: int) -> int:
        self.entries[key] = value
        self.emitted += 1
        return self.emitted

    def drop(self, key: int) -> int:
        self.entries.pop(key, None)
        self.dropped += 1
        return self.dropped

    def items(self) -> List[Tuple[int, int]]:
        """The merged run in key order."""
        return sorted(self.entries.items())


@dataclasses.dataclass
class CompactionReport:
    """Byte-level accounting of one executed compaction."""

    mode: str
    tables: int = 0
    pages_scanned: int = 0
    emitted: int = 0
    dropped: int = 0
    output_entries: int = 0
    output_bytes: int = 0
    #: Bytes that crossed the user/kernel syscall boundary.
    user_bytes: int = 0
    #: Bytes the merge+rewrite moved entirely below the boundary.
    kernel_bytes: int = 0
    chain_hops: int = 0
    duration_ns: int = 0
    output_path: Optional[str] = None


class CompactionEngine:
    """Runs LSM compactions against a :class:`~repro.core.StorageBpf`."""

    def __init__(self, bpf):
        self.bpf = bpf
        self.kernel = bpf.kernel
        self.program = sstable_merge_program(PAGE_SIZE, SCRATCH_SIZE)
        self.bpf.verify_program(self.program)

    # ------------------------------------------------------------------

    def spawn(self, name: str = "compactor"):
        """A compactor process: untenanted, so its I/O is system traffic."""
        return self.kernel.spawn_process(name)

    # ------------------------------------------------------------------
    # The mode-agnostic core (also run server-side by StorageTarget)
    # ------------------------------------------------------------------

    def compact_files(self, proc, input_paths: List[str],
                      output_path: str, drop_tombstones: bool = False,
                      mode: str = "offloaded"):
        """Merge ``input_paths`` (oldest first) into ``output_path``.

        Generator (runs inside a simulated thread).  Returns
        ``(report, output)`` where ``output`` is ``(path, SsTable)`` or
        None when everything merged away.  The inputs are *not*
        unlinked — :meth:`~repro.structures.LsmTree.apply_compaction`
        owns the level swap and the invalidation-firing unlinks.
        """
        if mode not in ("user", "offloaded"):
            raise InvalidArgument(f"unknown compaction mode {mode!r}")
        kernel = self.kernel
        start_ns = kernel.sim.now
        report = CompactionReport(mode=mode, tables=len(input_paths))
        bus = kernel.bus
        if bus is not None and bus.enabled:
            bus.emit(obs_events.COMPACT_START, kernel.sim.now, mode=mode,
                     tables=len(input_paths),
                     drop_tombstones=int(drop_tombstones), pid=proc.pid)
        if mode == "user":
            items = yield from self._merge_user(proc, input_paths,
                                                drop_tombstones, report)
        else:
            items = yield from self._merge_offloaded(proc, input_paths,
                                                     drop_tombstones,
                                                     report)
        output = None
        if items:
            output = yield from self._write_output(proc, output_path,
                                                   items, report)
        report.output_entries = len(items)
        report.duration_ns = kernel.sim.now - start_ns
        if bus is not None and bus.enabled:
            bus.emit(obs_events.COMPACT_COMPLETE, kernel.sim.now,
                     mode=mode, emitted=report.emitted,
                     dropped=report.dropped,
                     output_entries=report.output_entries,
                     user_bytes=report.user_bytes,
                     kernel_bytes=report.kernel_bytes,
                     chain_hops=report.chain_hops, pid=proc.pid)
        return report, output

    def compact_tree(self, proc, tree, level: int = 0,
                     mode: str = "offloaded"):
        """Plan, execute, and install one ``level -> level + 1``
        compaction on ``tree``.  Generator; returns the report (or None
        when there was nothing to compact)."""
        plan = tree.plan_compaction(level)
        if plan is None:
            return None
        output_path = tree.reserve_table_path()
        report, output = yield from self.compact_files(
            proc, plan.input_paths(), output_path,
            drop_tombstones=plan.drop_tombstones, mode=mode)
        tree.apply_compaction(plan, [], output=output)
        return report

    # ------------------------------------------------------------------
    # user-space merge: every page up, the merged table back down
    # ------------------------------------------------------------------

    def _merge_user(self, proc, input_paths, drop_tombstones, report):
        kernel = self.kernel
        sink = MergeSink()
        for path in input_paths:  # oldest first, newer overwrites
            fd = yield from kernel.sys_open(proc, path)
            # Walk the same pages the chain walks: the data run starts
            # at PAGE_SIZE and ends at the first non-data page.
            offset = PAGE_SIZE
            while True:
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                report.user_bytes += PAGE_SIZE
                report.pages_scanned += 1
                yield from kernel.cpus.run_thread(
                    kernel.cost.user_process_ns)
                magic, _level, entries = decode_page(result.data)
                if magic != SSTABLE_DATA_MAGIC:
                    break
                # The merge program's choice, made in user space.
                for key, value in entries:
                    if drop_tombstones and value == TOMBSTONE:
                        sink.drop(key)
                    else:
                        sink.emit(key, value)
                offset += PAGE_SIZE
            yield from kernel.sys_close(proc, fd)
        report.emitted = sink.emitted
        report.dropped = sink.dropped
        return sink.items()

    # ------------------------------------------------------------------
    # offloaded merge: one chain per run, only scalars surface
    # ------------------------------------------------------------------

    def _merge_offloaded(self, proc, input_paths, drop_tombstones,
                         report):
        sink = MergeSink()
        flag = 1 if drop_tombstones else 0
        for path in input_paths:  # oldest first, newer overwrites
            handle = yield from self.bpf.open_chain(
                proc, path, self.program, hook=Hook.NVME,
                block_size=PAGE_SIZE, scratch_size=SCRATCH_SIZE,
                args=(flag,))
            # The helpers reach the sink through the installation's VM
            # (the same channel the chain budget uses).
            handle.installation.vm.compact_sink = sink
            result = yield from handle.read_robust(PAGE_SIZE)
            report.chain_hops += result.hops
            report.pages_scanned += result.hops
            report.user_bytes += SCALAR_RESULT_BYTES
            yield from handle.close()
        report.emitted = sink.emitted
        report.dropped = sink.dropped
        return sink.items()

    # ------------------------------------------------------------------

    def _write_output(self, proc, output_path, items, report):
        """Write the merged run through the (timed) write syscall path."""
        kernel = self.kernel
        staging = MemoryBackend()
        SsTable.build(staging, items)
        image = staging.read(0, staging.size)
        report.output_bytes = len(image)
        if report.mode == "user":
            report.user_bytes += len(image)
        else:
            report.kernel_bytes += len(image)
        fd = yield from kernel.sys_open(proc, output_path, create=True)
        yield from kernel.sys_pwrite(proc, fd, 0, image)
        yield from kernel.sys_fsync(proc, fd)
        inode = proc.file(fd).inode
        yield from kernel.sys_close(proc, fd)
        report.output_path = output_path
        return output_path, SsTable(FsBackend(kernel.fs, inode))
