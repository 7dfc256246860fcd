"""lsm_compaction — a k-way merge pushed below the syscall boundary.

Four overlapping L0 runs with tombstones are merged into one bottom
table while six foreground readers share the machine's four cores (two
readers never queue behind the merge in this model, so their latency
would read the same on every seed and tell nothing).  Primary: one
merge chain per run streams entries into the kernel-side sink and only
two u64 counters per run surface.  Reference: every page is pread into
user space and the merged table written back down.  The same ``core``
and ``ebpf`` layers as ``btree_chain``, used as a streaming scan with a
kernel sink plus one large sequential write-back.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Tuple

from repro.bench.runner import NVM2_BENCH
from repro.compact import CompactionEngine
from repro.core import StorageBpf
from repro.kernel import Kernel, KernelConfig
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.structures import LsmTree, TOMBSTONE

from bench_e2e.workloads.common import OpStats, Rep, Workload, World, sha

FG_PATH = "/fg"
FG_SIZE = 1 << 20
SECTOR = 512


def merged_items(runs: List[Dict[int, int]]) -> List[Tuple[int, int]]:
    """What a bottom-level merge must produce: newest wins, tombstones
    and everything they shadow gone."""
    folded: Dict[int, int] = {}
    for run in runs:  # oldest first
        folded.update(run)
    return sorted((key, value) for key, value in folded.items()
                  if value != TOMBSTONE)


def output_mismatches(got: List[Tuple[int, int]],
                      want: List[Tuple[int, int]]) -> int:
    return len(set(got) ^ set(want)) + (0 if got == sorted(got) else 1)


class LsmCompaction(Workload):
    name = "lsm_compaction"
    why = ("the chain path used as a streaming scan with a kernel sink "
           "plus a large sequential write-back: the same core/ebpf layers "
           "as btree_chain, used differently")
    clients = ("closed loop, 1 compactor + 6 foreground 512 B readers on "
               "4 cores")
    op = "one input entry merged"
    latency_op = "foreground 512 B reads issued while the merge runs"
    reference = "CompactionEngine mode='user' (pread, merge, pwrite)"
    idle_layers = ("workloads", "net", "cluster", "qos")

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.runs = 4
        self.keys_per_run = 1_500 if quick else 24_000
        self.tombstones_per_run = self.keys_per_run // 15
        self.readers = 6
        self.cores = 4

    def setup(self) -> None:
        # The merge program is verified here, once; reps reuse it, so
        # the verifier is not inside any timed rep.
        throwaway = Kernel(Simulator(), NVM2_BENCH,
                           KernelConfig(cores=self.cores))
        self.engine = CompactionEngine(StorageBpf(throwaway))
        rng = RandomStreams(self.seed).stream("lsm")
        half = self.keys_per_run // 2
        self.run_items: List[Dict[int, int]] = []
        for run in range(self.runs):
            base = run * half
            items = {base + index: rng.getrandbits(48) + 1
                     for index in range(self.keys_per_run)}
            for index in rng.sample(range(self.keys_per_run),
                                    self.tombstones_per_run):
                items[base + index] = TOMBSTONE
            self.run_items.append(items)
        self.expected = merged_items(self.run_items)
        self.fg_data = rng.randbytes(FG_SIZE)

    def build(self, path: str) -> World:
        sim = Simulator()
        kernel = Kernel(sim, NVM2_BENCH, KernelConfig(cores=self.cores))
        tree = LsmTree(kernel.fs, "/db",
                       memtable_limit=4 * self.keys_per_run,
                       l0_limit=self.runs + 4)
        for items in self.run_items:
            for key, value in items.items():
                if value == TOMBSTONE:
                    tree.delete(key)
                else:
                    tree.put(key, value)
            tree.flush()
        kernel.create_file(FG_PATH, self.fg_data)
        bpf = StorageBpf(kernel)
        engine = copy.copy(self.engine)
        engine.bpf, engine.kernel = bpf, kernel
        return World(sim, path, [kernel], [bpf],
                     state={"tree": tree, "engine": engine})

    def run(self, world: World, op_span) -> Rep:
        sim = world.sim
        kernel = world.kernels[0]
        tree: LsmTree = world.state["tree"]
        engine: CompactionEngine = world.state["engine"]
        mode = "offloaded" if world.path == "primary" else "user"
        streams = RandomStreams(self.seed)
        fg = OpStats()
        done: List[bool] = []
        out = {}

        def reader(index):
            proc = kernel.spawn_process(f"fg-{index}")
            fd = yield from kernel.sys_open(proc, FG_PATH)
            rng = streams.fork(f"fg-{index}").stream("off")

            def one_op():
                offset = rng.randrange(FG_SIZE // SECTOR) * SECTOR
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     SECTOR)
                return result.data == self.fg_data[offset:offset + SECTOR]

            # Readers run until the merge completes, so the samples
            # cover exactly the window the merge perturbs.
            while not done:
                start = sim.now
                ok = yield from op_span(one_op())
                fg.attempted += 1
                if ok:
                    fg.latencies.append(sim.now - start)
                else:
                    fg.failed += 1

        def compactor():
            proc = engine.spawn()
            out["report"] = yield from op_span(
                engine.compact_tree(proc, tree, 0, mode=mode))
            done.append(True)

        for index in range(self.readers):
            sim.spawn(reader(index), name=f"fg-{index}")
        sim.spawn(compactor(), name="compactor")
        sim.run()
        report = out["report"]
        world.state["report"] = report
        entries = self.runs * self.keys_per_run
        return Rep(ops=entries, attempted=entries + fg.attempted,
                   failed=fg.failed, sim_ns=report.duration_ns,
                   latencies=fg.latencies, writes=1,
                   extra={"fg_reads": fg.attempted,
                          "user_bytes": report.user_bytes,
                          "kernel_bytes": report.kernel_bytes,
                          "emitted": report.emitted,
                          "dropped": report.dropped,
                          "chain_hops": report.chain_hops,
                          "output_bytes": report.output_bytes})

    def verify(self, world: World, rep: Rep) -> None:
        """The output table holds exactly the expected merge."""
        tree: LsmTree = world.state["tree"]
        tables = [table for level in tree.levels for _path, table in level]
        got = [entry for table in tables for entry in table.entries()]
        wrong = output_mismatches(got, self.expected) + (len(tables) != 1)
        rep.violations["output"] = wrong
        if wrong:
            rep.ops = 0
            rep.failed += self.runs * self.keys_per_run
        backend = tables[0].backend
        rep.digest = sha(backend.read(0, backend.size))

    def cross_check(self, primary: Rep, reference: Rep):
        return {"user_offloaded_byte_identical":
                primary.digest == reference.digest and primary.digest != ""}

    def layer_metrics(self, primary: Rep, reference: Rep, counters):
        extra = primary.extra
        return {
            "compact.boundary_bytes_per_entry":
                extra["user_bytes"] / primary.ops,
            "compact.bytes_user_over_offloaded":
                reference.extra["user_bytes"] / extra["user_bytes"],
            "compact.kernel_bytes": extra["kernel_bytes"],
            "compact.entries_emitted": extra["emitted"],
            "compact.entries_dropped": extra["dropped"],
            "compact.chain_hops": extra["chain_hops"],
            "compact.write_amp": 512.0 * counters["device.media_writes"]
            / extra["output_bytes"],
            "compact.sim_us": primary.sim_ns / 1000,
        }

    def self_test(self):
        want = merged_items([{1: 5, 2: 6}, {2: TOMBSTONE, 3: 7}])
        return {"merge_output": want == [(1, 5), (3, 7)]
                and output_mismatches(want, want) == 0
                and output_mismatches([(1, 5), (3, 8)], want) > 0
                and output_mismatches([(1, 5), (2, 6), (3, 7)], want) > 0}
