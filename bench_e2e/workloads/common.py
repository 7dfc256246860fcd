"""What every workload shares: the rep record, the world, closed loops.

A *world* is one freshly built simulated system (simulator, machines,
data, installed programs).  A *rep* runs one path (primary or
reference) over a world and returns a :class:`Rep`.  Worlds are rebuilt
from the seed for every rep, so reps of one seed must agree exactly on
every simulated number — the harness asserts it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.errors import ReproError
from repro.sim import Simulator

__all__ = ["Rep", "World", "Workload", "OpStats", "closed_loop",
           "identity_span", "PlainFile", "sha"]


def sha(*parts: bytes) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()[:16]


def identity_span(generator: Generator) -> Generator:
    """The untraced op wrapper: the op's generator, untouched."""
    return generator


@dataclasses.dataclass
class OpStats:
    """Outcome counters and latency samples of one class of operation."""

    attempted: int = 0
    failed: int = 0
    latencies: List[int] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


@dataclasses.dataclass
class Rep:
    """One rep of one path.  Every field is simulated, hence exact."""

    #: Completed throughput operations (the workload's ``op``).
    ops: int
    attempted: int
    failed: int
    #: Simulated duration the ops were counted over.
    sim_ns: int
    #: Simulated latency of each successful latency op.
    latencies: List[int]
    #: Write operations among ``ops`` (journal bytes are per write).
    writes: int = 0
    #: Hash of the outputs the workload checks.
    digest: str = ""
    #: Workload-specific exact values (per-layer metrics read these).
    extra: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: What ``Workload.verify`` found wrong, by name; any non-zero count
    #: fails the run.
    violations: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: Host seconds of each operation, for workloads whose rep is a few
    #: long operations (the only non-simulated field; not in the
    #: signature).  The harness then takes its fast quartile per part.
    host_parts: Dict[str, float] = dataclasses.field(default_factory=dict)

    def signature(self) -> tuple:
        """Everything that must repeat bit for bit across reps."""
        return (self.ops, self.attempted, self.failed, self.sim_ns,
                sha(struct.pack(f"<{len(self.latencies)}q",
                                *self.latencies)),
                self.writes, self.digest, tuple(sorted(self.extra.items())),
                tuple(sorted(self.violations.items())))


@dataclasses.dataclass
class World:
    """One built system; the harness reads layer counters off these."""

    sim: Simulator
    path: str
    kernels: List[Any]
    bpfs: List[Any] = dataclasses.field(default_factory=list)
    cluster: Any = None
    #: Workload-private state the run needs (trees, plans, shadows).
    state: Dict[str, Any] = dataclasses.field(default_factory=dict)


class Workload:
    """Base class: sizes, set-up, build, run, cross-path checks."""

    name = ""
    why = ""
    #: Closed loop: callers wait for replies.  Stated client count.
    clients = ""
    op = ""
    latency_op = ""
    reference = ""
    #: False where every user pays the first rep cold (verify_install).
    warm_up = True
    #: Layers predicted to do no work at all in a primary rep; the traced
    #: rep must record no span in them.
    idle_layers: tuple = ()

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.quick = quick

    def setup(self) -> None:
        """Once per process, before the first build."""

    def build(self, path: str) -> World:
        raise NotImplementedError

    def run(self, world: World, op_span: Callable) -> Rep:
        raise NotImplementedError

    def verify(self, world: World, rep: Rep) -> None:
        """Untimed checks after a rep; fills ``rep.digest`` and
        ``rep.violations``."""

    def cross_check(self, primary: Rep, reference: Rep) -> Dict[str, bool]:
        """Checks that need both paths (e.g. byte-identical outputs)."""
        return {}

    def layer_metrics(self, primary: Rep, reference: Rep,
                      counters: Dict[str, float]) -> Dict[str, float]:
        """Exact per-layer metrics only this workload can state;
        ``counters`` are the primary rep's generic ones."""
        return {}

    def self_test(self) -> Dict[str, bool]:
        """Negative tests: feed each checker a wrong value, expect it
        to object.  Returns check name -> "the checker caught it"."""
        return {}


def closed_loop(sim: Simulator, stop_at: int, stats: OpStats,
                one_op: Callable[[], Generator], op_span: Callable):
    """One closed-loop client: issue, wait, record, repeat until
    ``stop_at``.  ``one_op`` is a generator returning True when the op's
    result was correct; an op that raises a :class:`ReproError`, or
    returns False, is failed and contributes no latency sample.  An op
    still in flight at ``stop_at`` is outside the window: not counted."""
    while sim.now < stop_at:
        start = sim.now
        try:
            ok = yield from op_span(one_op())
        except ReproError:
            ok = False
        if sim.now > stop_at:
            return
        stats.attempted += 1
        if ok:
            stats.latencies.append(sim.now - start)
        else:
            stats.failed += 1


class PlainFile:
    """A plain file hit with 512 B YCSB reads and writes, with a shadow.

    Thread ``t`` of ``threads`` writes only sectors ``s`` with ``s %
    threads == t``, so writes to one sector are ordered by their one
    writer and the final contents are known exactly; reads go anywhere
    in the preallocated region.  UPDATEs overwrite that region; INSERTs
    append past it, so they allocate blocks and move the file size —
    the metadata the journal exists for.  Every payload carries its
    sector number and a per-writer sequence, so a read can be checked
    even while another thread owns the sector.
    """

    SECTOR = 512
    _STAMP = struct.Struct("<QQQ")
    MAGIC = 0x5EC70B0B

    def __init__(self, kernel, path: str, size: int, threads: int):
        self.kernel = kernel
        self.path = path
        self.sectors = size // self.SECTOR
        self.threads = threads
        self.shadow: Dict[int, bytes] = {}
        kernel.create_file(path, bytes(size))

    def payload(self, sector: int, sequence: int) -> bytes:
        stamp = self._STAMP.pack(self.MAGIC, sector, sequence)
        return stamp + bytes(self.SECTOR - len(stamp))

    def read_ok(self, sector: int, data: bytes) -> bool:
        """A sector another thread owns: zeros (not yet written when the
        device served the read) or a payload stamped for this sector."""
        if len(data) != self.SECTOR:
            return False
        magic, stamped, _sequence = self._STAMP.unpack_from(data)
        if magic == 0:
            return not any(data)
        return magic == self.MAGIC and stamped == sector

    def worker(self, index: int, workload, fsync_every: int = 0,
               tenant: Optional[str] = None):
        """Set-up generator for thread ``index``; returns ``one_op``."""
        kernel = self.kernel
        proc = kernel.spawn_process(f"plain-{index}", tenant=tenant)
        fd = yield from kernel.sys_open(proc, self.path)
        from repro.workloads import OpType
        owned = self.sectors // self.threads
        state = {"writes": 0, "inserts": 0}

        def one_op():
            op = workload.next_operation()
            if op.op in (OpType.UPDATE, OpType.INSERT):
                if op.op is OpType.INSERT:
                    sector = (self.sectors + state["inserts"] * self.threads
                              + index)
                    state["inserts"] += 1
                else:
                    sector = (op.key % owned) * self.threads + index
                state["writes"] += 1
                data = self.payload(sector, state["writes"])
                written = yield from kernel.sys_pwrite(
                    proc, fd, sector * self.SECTOR, data)
                self.shadow[sector] = data
                if fsync_every and state["writes"] % fsync_every == 0:
                    yield from kernel.sys_fsync(proc, fd)
                return written == self.SECTOR
            sector = op.key % self.sectors
            result = yield from kernel.sys_pread(
                proc, fd, sector * self.SECTOR, self.SECTOR)
            if sector % self.threads == index:
                # Own sector: nobody else writes it, so it is exact.
                return result.data == self.shadow.get(
                    sector, bytes(self.SECTOR))
            return self.read_ok(sector, result.data)

        return one_op, state

    def final_mismatches(self) -> int:
        """Sectors whose on-file bytes differ from the shadow."""
        cache = self.kernel.device.write_cache
        if cache is not None:
            # read_sync reads media; destage what is still volatile.
            cache.flush()
        fs = self.kernel.fs
        inode = fs.lookup(self.path)
        return sum(
            1 for sector, data in self.shadow.items()
            if fs.read_sync(inode, sector * self.SECTOR,
                            self.SECTOR) != data)
