"""plain_rw — no BPF anywhere: journalled reads and writes on a plain file.

Syscall path, extent file system, journal, volatile write cache and
device FLUSH do all the work; ``ebpf`` and ``core`` do exactly none, so
a VM or chain optimisation must show *no change* here.  It is also the
writes-beside-reads check for any read-path change.
"""

from __future__ import annotations

from repro.device import NVM_GEN2
from repro.kernel import JournalConfig, Kernel, KernelConfig, fsck
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.workloads import YcsbWorkload

from bench_e2e.workloads.common import (OpStats, PlainFile, Rep, Workload,
                                        World, closed_loop, sha)


class PlainRw(Workload):
    name = "plain_rw"
    why = ("kernel (syscall, extfs, journal), write cache and device "
           "FLUSH do all the work and ebpf/core exactly zero")
    clients = "closed loop, 8 threads over 4 queue pairs"
    op = latency_op = ("one 512 B sys_pread or sys_pwrite (YCSB paper mix, "
                       "fsync after every 16th write, billed to that write)")
    reference = "the same stream with 1 thread on 1 queue pair"
    idle_layers = ("ebpf", "core", "structures", "net", "cluster", "qos",
                   "compact")

    FILE_SIZE = 1 << 20
    FSYNC_EVERY = 16

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.threads = 8
        self.queue_pairs = 4
        self.duration_ns = 1_000_000 if quick else 12_000_000

    def build(self, path: str) -> World:
        threads, pairs = ((self.threads, self.queue_pairs)
                          if path == "primary" else (1, 1))
        sim = Simulator()
        kernel = Kernel(sim, NVM_GEN2, KernelConfig(
            queue_pairs=pairs, write_cache_depth=8,
            journal=JournalConfig(journal_blocks=64)))
        file = PlainFile(kernel, "/plain", self.FILE_SIZE, threads)
        kernel.fs.checkpoint_sync()
        return World(sim, path, [kernel],
                     state={"file": file, "threads": threads})

    def run(self, world: World, op_span) -> Rep:
        sim = world.sim
        file: PlainFile = world.state["file"]
        stats = OpStats()
        streams = RandomStreams(self.seed)
        writers = []
        start = sim.now
        stop_at = start + self.duration_ns

        def loop(index):
            ycsb = YcsbWorkload(
                file.sectors, streams.fork(f"thread-{index}").stream("ycsb"),
                mix="paper")
            one_op, state = yield from file.worker(
                index, ycsb, fsync_every=self.FSYNC_EVERY)
            writers.append(state)
            yield from closed_loop(sim, stop_at, stats, one_op, op_span)

        for index in range(world.state["threads"]):
            sim.spawn(loop(index), name=f"rw-{index}")
        sim.run(until=stop_at)
        return Rep(ops=stats.ok, attempted=stats.attempted,
                   failed=stats.failed, sim_ns=self.duration_ns,
                   latencies=stats.latencies,
                   writes=sum(state["writes"] for state in writers))

    def verify(self, world: World, rep: Rep) -> None:
        """fsck is clean and the file holds every acknowledged write."""
        file: PlainFile = world.state["file"]
        report = fsck(world.kernels[0].fs)
        rep.violations.update(fsck=len(report.violations),
                              readback=file.final_mismatches())
        rep.digest = sha(b"".join(
            data for _sector, data in sorted(file.shadow.items())))

    def self_test(self):
        sim = Simulator()
        kernel = Kernel(sim, NVM_GEN2, KernelConfig())
        file = PlainFile(kernel, "/t", 8192, 2)
        good = file.payload(3, 1)
        file.shadow[3] = file.payload(3, 2)
        return {
            "read_stamp": file.read_ok(3, good)
            and not file.read_ok(4, good) and not file.read_ok(3, good[:100]),
            "readback": file.final_mismatches() == 1,
        }
