"""btree_chain — the paper's headline: B-tree lookups as NVMe-hook chains.

Primary: one ``StorageBpf.read_chain`` per lookup; the traversal program
runs in the completion interrupt and recycles the descriptor level by
level.  Reference: the application traverses — ``sys_pread`` plus a
user-space ``search_page`` per level, one boundary crossing each.
"""

from __future__ import annotations

from repro.bench.runner import NVM2_BENCH, BtreeBench
from repro.core import Hook
from repro.kernel import ChainStatus
from repro.sim.rng import RandomStreams
from repro.structures.pages import PAGE_SIZE, search_page

from bench_e2e.workloads.common import (OpStats, Rep, Workload, World,
                                        closed_loop)

#: The paper's Figure 3b: NVMe-hook chains reach about 2.5x the
#: application's lookups/s on a depth-6 tree with 12 threads.
PAPER_SPEEDUP = 2.5


def expected_value(key: int) -> int:
    """Trees are built from ``(3k + 1, k)``, so the value is the rank."""
    return (key - 1) // 3


class BtreeChain(Workload):
    name = "btree_chain"
    why = ("ebpf VM, core chains, the IRQ path and device do nearly all "
           "the work; net, cluster, qos and the journal do none")
    clients = "closed loop, 12 threads"
    op = latency_op = "one B-tree lookup (depth 6)"
    reference = "application traversal: sys_pread + search_page per level"
    idle_layers = ("workloads", "net", "cluster", "qos", "compact")

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.depth = 6
        self.cores = 6
        self.threads = 12
        self.duration_ns = 400_000 if quick else 5_000_000

    def build(self, path: str) -> World:
        # BtreeBench's own seed stays 0: --seed reaches only the keys.
        bench = BtreeBench(self.depth, cores=self.cores, model=NVM2_BENCH)
        return World(bench.sim, path, [bench.kernel], [bench.bpf],
                     state={"bench": bench})

    def _keys(self, bench: BtreeBench, index: int):
        rng = RandomStreams(self.seed).fork(f"thread-{index}").stream("keys")
        keys = bench.keys
        return lambda: keys[rng.randrange(len(keys))]

    def _chain_worker(self, bench: BtreeBench, index: int):
        kernel = bench.kernel
        proc = kernel.spawn_process(f"chain-{index}")
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bench.bpf.install(proc, fd, bench.program, hook=Hook.NVME)
        next_key = self._keys(bench, index)
        root = bench.tree.meta.root_offset

        def one_op():
            key = next_key()
            result = yield from bench.bpf.read_chain(
                proc, fd, root, PAGE_SIZE, args=(key,))
            return lookup_ok(key, result.status, result.value,
                             result.value2)

        return one_op

    def _app_worker(self, bench: BtreeBench, index: int):
        kernel = bench.kernel
        proc = kernel.spawn_process(f"app-{index}")
        fd = yield from kernel.sys_open(proc, "/index")
        next_key = self._keys(bench, index)
        root = bench.tree.meta.root_offset
        user_ns = kernel.cost.user_process_ns

        def one_op():
            key = next_key()
            offset = root
            value = None
            for _level in range(self.depth):
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                yield from kernel.cpus.run_thread(user_ns)
                _index, value = search_page(result.data, key)
                if value is None:
                    return False
                offset = value
            return lookup_ok(key, ChainStatus.OK, value, 1)

        return one_op

    def run(self, world: World, op_span) -> Rep:
        bench: BtreeBench = world.state["bench"]
        sim = world.sim
        stats = OpStats()
        make = (self._chain_worker if world.path == "primary"
                else self._app_worker)
        start = sim.now
        stop_at = start + self.duration_ns

        def loop(index):
            one_op = yield from make(bench, index)
            yield from closed_loop(sim, stop_at, stats, one_op, op_span)

        for index in range(self.threads):
            sim.spawn(loop(index), name=f"worker-{index}")
        sim.run(until=stop_at)
        return Rep(ops=stats.ok, attempted=stats.attempted,
                   failed=stats.failed, sim_ns=self.duration_ns,
                   latencies=stats.latencies)

    def layer_metrics(self, primary: Rep, reference: Rep, counters):
        speedup = (primary.ops / primary.sim_ns) \
            / (reference.ops / reference.sim_ns)
        return {"bench.paper_err_pct":
                100.0 * abs(speedup - PAPER_SPEEDUP) / PAPER_SPEEDUP}

    def self_test(self):
        return {"lookup_value": not lookup_ok(31, ChainStatus.OK, 11, 1)
                and lookup_ok(31, ChainStatus.OK, 10, 1)}


def lookup_ok(key: int, status, value, found) -> bool:
    return (status == ChainStatus.OK and found == 1
            and value == expected_value(key))
