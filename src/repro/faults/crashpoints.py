"""Crash-point enumeration: crash everywhere, recover, verify.

The ALICE/CrashMonkey idea applied to the simulated stack: run a scripted
workload against a machine with a volatile write cache and a metadata
journal, crash it at *every* interesting point, mount-after-crash, and
check the result against an independently computed shadow model.

Two enumeration axes:

* ``at="flush"`` — arm ``FaultSpec(power_loss_after_flushes=k)`` for every
  flush boundary k of the workload.  The cut fires the instant the k-th
  FLUSH completes, i.e. inside fsync #k *after* the data flush but
  *before* the journal commit — the exact window the write-ahead protocol
  exists for.
* ``at="op"`` — run the first j ops to completion, then cut power
  manually (:meth:`Kernel.crash`), for every j.  Here the cache is dirty,
  so dropped and torn volatile writes are exercised.

The verdict for every crash point is the same strong statement: the
recovered file system must equal the shadow state at the **last commit
point** before the crash (the last completed fsync — or the last
completed op when the journal runs in ``sync_commit`` mode on a
write-through device, the configuration in which a crash loses nothing).
That single equality implies prefix durability ("fsync'd bytes survive")
and rollback of every uncommitted txn; :func:`~repro.kernel.recovery.fsck`
then audits the structural invariants independently.

Workloads must not overwrite already-fsynced byte ranges in place
(``mixed_workload`` obeys this): the stack, like any O_DIRECT path without
data journaling, makes no atomicity promise for such overwrites.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidArgument, PowerLossError
from repro.faults.plan import FaultSpec

__all__ = ["CrashPointResult", "WorkloadOp", "count_flush_boundaries",
           "enumerate_crash_points", "mixed_workload"]


@dataclass(frozen=True)
class WorkloadOp:
    """One scripted operation; ``kind`` selects which fields matter."""

    kind: str          # create | write | fsync | rename | unlink | truncate
    path: str
    offset: int = 0    # write: byte offset (sector aligned)
    length: int = 0    # write: byte count (sector aligned)
    new_path: str = "" # rename target
    size: int = 0      # truncate target size

    _KINDS = ("create", "write", "fsync", "rename", "unlink", "truncate")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise InvalidArgument(f"unknown workload op kind {self.kind!r}")
        if self.kind == "write" and (self.offset % 512 or
                                     self.length % 512 or self.length <= 0):
            raise InvalidArgument("write ops must be sector aligned")


def mixed_workload(seed: int = 0) -> List[WorkloadOp]:
    """A representative crash-test script: creates, multi-block writes,
    appends-after-fsync, a rename commit pattern, truncate, and unlink —
    never overwriting an fsynced range in place.  ``seed`` varies the
    write payloads (via :func:`op_data`), not the op sequence, so the
    flush-boundary count is seed-independent.
    """
    del seed  # payloads are derived per (seed, index) at run time
    return [
        WorkloadOp("create", "/a"),
        WorkloadOp("write", "/a", offset=0, length=8192),
        WorkloadOp("fsync", "/a"),                        # boundary 1
        WorkloadOp("write", "/a", offset=8192, length=4096),
        WorkloadOp("create", "/b"),
        WorkloadOp("write", "/b", offset=0, length=12288),
        WorkloadOp("fsync", "/b"),                        # boundary 2
        WorkloadOp("rename", "/b", new_path="/b2"),
        WorkloadOp("create", "/c"),
        WorkloadOp("write", "/c", offset=0, length=4096),
        WorkloadOp("fsync", "/c"),                        # boundary 3
        WorkloadOp("truncate", "/a", size=4096),
        WorkloadOp("unlink", "/c"),
        WorkloadOp("create", "/d"),
        WorkloadOp("write", "/d", offset=0, length=4096),
        WorkloadOp("write", "/b2", offset=12288, length=8192),
        WorkloadOp("fsync", "/b2"),                       # boundary 4
    ]


def op_data(seed: int, index: int, length: int) -> bytes:
    """The deterministic payload of write op ``index`` under ``seed``."""
    return random.Random((seed << 20) ^ (index + 1)).randbytes(length)


# ---------------------------------------------------------------------------
# Shadow model
# ---------------------------------------------------------------------------

def _apply_shadow(state: Dict[str, bytearray], op: WorkloadOp,
                  data: bytes) -> None:
    if op.kind == "create":
        state[op.path] = bytearray()
    elif op.kind == "write":
        buf = state[op.path]
        if len(buf) < op.offset + op.length:
            buf.extend(bytes(op.offset + op.length - len(buf)))
        buf[op.offset : op.offset + op.length] = data
    elif op.kind == "rename":
        state[op.new_path] = state.pop(op.path)
    elif op.kind == "unlink":
        del state[op.path]
    elif op.kind == "truncate":
        buf = state[op.path]
        if op.size <= len(buf):
            del buf[op.size:]
        else:
            buf.extend(bytes(op.size - len(buf)))
    # fsync: no logical-content change


def _snapshot(state: Dict[str, bytearray]) -> Dict[str, bytes]:
    return {path: bytes(buf) for path, buf in state.items()}


# ---------------------------------------------------------------------------
# Machine driver
# ---------------------------------------------------------------------------

def _build_machine(seed: int, cache_depth: int, journal,
                   spec: Optional[FaultSpec], capacity_sectors: int):
    from repro.device import NVM_GEN2
    from repro.kernel.kernel import Kernel, KernelConfig
    from repro.sim import Simulator

    sim = Simulator()
    kernel = Kernel(sim, NVM_GEN2, KernelConfig(
        seed=seed, capacity_sectors=capacity_sectors,
        write_cache_depth=cache_depth, journal=journal, fault_plan=spec))
    return kernel


class _WorkloadRun:
    """Outcome of driving a workload until completion or power loss."""

    __slots__ = ("kernel", "completed", "crashed", "commit_index",
                 "committed_state", "snapshots")

    def __init__(self, kernel):
        self.kernel = kernel
        self.completed = -1      # index of the last fully completed op
        self.crashed = False
        self.commit_index = -1   # op index of the last durable commit
        self.committed_state: Dict[str, bytes] = {}
        self.snapshots: List[Dict[str, bytes]] = []


def _run_ops(kernel, ops: List[WorkloadOp], seed: int,
             stop_after: Optional[int] = None) -> _WorkloadRun:
    sync_commit = (kernel.fs.journal is not None and
                   kernel.fs.journal.config.sync_commit and
                   kernel.config.write_cache_depth == 0)
    run = _WorkloadRun(kernel)
    proc = kernel.spawn_process("crashpoint")
    fds: Dict[str, int] = {}
    shadow: Dict[str, bytearray] = {}
    try:
        for index, op in enumerate(ops):
            if stop_after is not None and index > stop_after:
                break
            data = b""
            if op.kind == "create":
                fds[op.path] = kernel.run_syscall(
                    kernel.sys_open(proc, op.path, create=True))
            elif op.kind == "write":
                data = op_data(seed, index, op.length)
                kernel.run_syscall(
                    kernel.sys_pwrite(proc, fds[op.path], op.offset, data))
            elif op.kind == "fsync":
                kernel.run_syscall(kernel.sys_fsync(proc, fds[op.path]))
            elif op.kind == "rename":
                kernel.run_syscall(
                    kernel.sys_rename(proc, op.path, op.new_path))
                fds[op.new_path] = fds.pop(op.path)
            elif op.kind == "unlink":
                kernel.run_syscall(kernel.sys_unlink(proc, op.path))
                fds.pop(op.path, None)
            elif op.kind == "truncate":
                kernel.run_syscall(
                    kernel.sys_ftruncate(proc, fds[op.path], op.size))
            _apply_shadow(shadow, op, data)
            run.completed = index
            run.snapshots.append(_snapshot(shadow))
            if op.kind == "fsync" or sync_commit:
                # fsync flushes the whole device cache and commits every
                # pending txn, so the *entire* shadow state is durable.
                run.commit_index = index
                run.committed_state = run.snapshots[-1]
    except PowerLossError:
        run.crashed = True
    if kernel.device.powered_off:
        # The cut can land on the workload's final fsync with nothing
        # left to submit — no op observes it, but the machine is down.
        run.crashed = True
    return run


def _read_back(fs) -> Dict[str, bytes]:
    """Every file on the (recovered) fs as path -> bytes."""
    out: Dict[str, bytes] = {}
    stack = [("", fs.root)]
    while stack:
        prefix, inode = stack.pop()
        for name, child in inode.entries.items():
            path = f"{prefix}/{name}"
            if child.is_dir:
                stack.append((path, child))
            else:
                out[path] = fs.read_sync(child, 0, child.size)
    return out


def count_flush_boundaries(ops: List[WorkloadOp], seed: int = 0,
                           cache_depth: int = 8, journal=None,
                           capacity_sectors: int = 262144) -> int:
    """Dry-run the workload fault-free and count completed NVMe flushes."""
    from repro.kernel.journal import JournalConfig

    kernel = _build_machine(seed, cache_depth,
                            journal or JournalConfig(), None,
                            capacity_sectors)
    run = _run_ops(kernel, ops, seed)
    if run.crashed or run.completed != len(ops) - 1:
        raise InvalidArgument("workload dry run did not complete")
    return kernel.device.flushes


@dataclass
class CrashPointResult:
    """Verdict for one enumerated crash point."""

    mode: str                 # "flush" or "op"
    boundary: int             # flush index k, or op index j
    ops_completed: int
    commit_index: int         # op index the recovered state must match
    crashed: bool
    replayed_txns: int = 0
    discarded_txns: int = 0
    dropped_writes: int = 0
    torn_sectors: int = 0
    fsck_ok: bool = False
    state_matches: bool = False
    mismatches: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.crashed and self.fsck_ok and self.state_matches


def _compare(expected: Dict[str, bytes],
             recovered: Dict[str, bytes]) -> List[str]:
    problems = []
    for path in sorted(set(expected) | set(recovered)):
        if path not in recovered:
            problems.append(f"{path} lost (was durable)")
        elif path not in expected:
            problems.append(f"{path} resurrected (never committed)")
        elif expected[path] != recovered[path]:
            want, got = expected[path], recovered[path]
            diff = next((i for i in range(min(len(want), len(got)))
                         if want[i] != got[i]), min(len(want), len(got)))
            problems.append(f"{path} differs at byte {diff} "
                            f"(want {len(want)}B, got {len(got)}B)")
    return problems


def enumerate_crash_points(ops: Optional[List[WorkloadOp]] = None,
                           seed: int = 0, cache_depth: int = 8,
                           journal=None, tear: bool = False,
                           at: str = "flush",
                           capacity_sectors: int = 262144
                           ) -> List[CrashPointResult]:
    """Crash at every boundary, recover, fsck, verify; returns verdicts.

    Each crash point gets a *fresh* machine with the same kernel seed, so
    the pre-crash history is identical across the sweep and only the cut
    location varies.  Callers assert ``all(r.ok for r in results)``.
    """
    from repro.kernel.journal import JournalConfig
    from repro.kernel.recovery import fsck

    if at not in ("flush", "op"):
        raise InvalidArgument(f"bad enumeration axis {at!r}")
    if ops is None:
        ops = mixed_workload(seed)
    journal = journal or JournalConfig()
    if at == "flush":
        boundaries = range(1, count_flush_boundaries(
            ops, seed=seed, cache_depth=cache_depth, journal=journal,
            capacity_sectors=capacity_sectors) + 1)
    else:
        boundaries = range(len(ops))

    results: List[CrashPointResult] = []
    for boundary in boundaries:
        if at == "flush":
            spec = FaultSpec(seed=seed, power_loss_after_flushes=boundary,
                             torn_write=int(tear))
            kernel = _build_machine(seed, cache_depth, journal, spec,
                                    capacity_sectors)
            run = _run_ops(kernel, ops, seed)
            crash_info = {"dropped": 0, "torn_sectors": 0}
            crashed = run.crashed
        else:
            kernel = _build_machine(seed, cache_depth, journal, None,
                                    capacity_sectors)
            run = _run_ops(kernel, ops, seed, stop_after=boundary)
            crash_info = kernel.crash(tear=tear)
            crashed = True
        result = CrashPointResult(
            mode=at, boundary=boundary, ops_completed=run.completed,
            commit_index=run.commit_index, crashed=crashed,
            dropped_writes=crash_info.get("dropped", 0),
            torn_sectors=crash_info.get("torn_sectors", 0))
        if not crashed:
            # The armed boundary was never reached (harness bug).
            results.append(result)
            continue
        report = kernel.recover()
        result.replayed_txns = report.replayed_txns
        result.discarded_txns = report.discarded_txns
        audit = fsck(kernel.fs)
        result.fsck_ok = audit.ok
        result.violations = list(audit.violations)
        expected = run.committed_state
        recovered = _read_back(kernel.fs)
        result.mismatches = _compare(expected, recovered)
        result.state_matches = not result.mismatches
        results.append(result)
    return results
