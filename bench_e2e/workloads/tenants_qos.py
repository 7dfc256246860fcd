"""tenants_qos — an aggressor's chain storm beside a light victim.

96 aggressor threads run depth-12 NVMe-hook chains; 2 victim threads
run a 512 B YCSB read/write mix on a plain file of the same device.
With about 100 runnable processes this is the deepest event heap of the
suite, and the only workload where ``qos`` objects exist: weighted-fair
pick on every submission, token pacing on every chain resubmission.
Primary = QoS on, reference = QoS off; a victim-alone run in set-up
gives the unloaded p99.
"""

from __future__ import annotations

from typing import Optional

from repro.bench.runner import BtreeBench
from repro.core import Hook
from repro.device import NVM_GEN2
from repro.qos import QosConfig, Tenant
from repro.sim.rng import RandomStreams
from repro.structures.pages import PAGE_SIZE
from repro.workloads import YcsbWorkload

from bench_e2e.metrics import tail_percentile
from bench_e2e.workloads.btree_chain import lookup_ok
from bench_e2e.workloads.common import (OpStats, PlainFile, Rep, Workload,
                                        World, closed_loop, identity_span)


class TenantsQos(Workload):
    name = "tenants_qos"
    why = ("~100 runnable processes make the deepest event heap; the only "
           "workload where qos objects exist (WFQ pick, token pacing)")
    clients = ("closed loop, 96 aggressor threads (weight 1) + 2 victim "
               "threads (weight 12)")
    op = "any completed operation (victim read/write or aggressor lookup)"
    latency_op = "victim operations only (512 B read or write)"
    reference = "the same load with QoS off (FIFO submission queues)"
    idle_layers = ("net", "cluster", "compact")

    FILE_SIZE = 1 << 20

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.chain_depth = 12
        self.victims = 2
        self.aggressors = 24 if quick else 96
        self.duration_ns = 500_000 if quick else 10_000_000
        self.qos = QosConfig(
            tenants=(Tenant("victim", weight=12),
                     Tenant("aggressor", weight=1)),
            chain_tokens_per_ms=750)
        self.alone_p99_ns = 0

    def setup(self) -> None:
        # The victim's unloaded tail: the yardstick for victim_p99_x_alone.
        world = self._build(None, with_aggressor=False)
        rep = self.run(world, identity_span)
        world.sim.run()  # land what was in flight at the deadline
        self.alone_p99_ns = tail_percentile(rep.latencies)[1]

    def build(self, path: str) -> World:
        return self._build(self.qos if path == "primary" else None,
                           with_aggressor=True, path=path)

    def _build(self, qos: Optional[QosConfig], with_aggressor: bool,
               path: str = "alone") -> World:
        bench = BtreeBench(self.chain_depth, model=NVM_GEN2, qos=qos)
        file = PlainFile(bench.kernel, "/plain", self.FILE_SIZE,
                         self.victims)
        return World(bench.sim, path, [bench.kernel], [bench.bpf],
                     state={"bench": bench, "file": file,
                            "aggressors":
                                self.aggressors if with_aggressor else 0})

    def run(self, world: World, op_span) -> Rep:
        bench: BtreeBench = world.state["bench"]
        file: PlainFile = world.state["file"]
        sim = world.sim
        kernel = bench.kernel
        streams = RandomStreams(self.seed)
        victim = OpStats()
        aggressor = OpStats()
        writers = []
        start = sim.now
        stop_at = start + self.duration_ns

        def victim_loop(index):
            ycsb = YcsbWorkload(
                file.sectors, streams.fork(f"victim-{index}").stream("ycsb"),
                mix="paper")
            one_op, state = yield from file.worker(index, ycsb,
                                                   tenant="victim")
            writers.append(state)
            yield from closed_loop(sim, stop_at, victim, one_op, op_span)

        def aggressor_loop(index):
            proc = kernel.spawn_process(f"aggr-{index}", tenant="aggressor")
            fd = yield from kernel.sys_open(proc, "/index")
            yield from bench.bpf.install(proc, fd, bench.program,
                                         hook=Hook.NVME)
            rng = streams.fork(f"aggr-{index}").stream("keys")
            keys = bench.keys
            root = bench.tree.meta.root_offset

            def one_op():
                key = keys[rng.randrange(len(keys))]
                result = yield from bench.bpf.read_chain(
                    proc, fd, root, PAGE_SIZE, args=(key,))
                return lookup_ok(key, result.status, result.value,
                                 result.value2)

            yield from closed_loop(sim, stop_at, aggressor, one_op, op_span)

        for index in range(self.victims):
            sim.spawn(victim_loop(index), name=f"victim-{index}")
        for index in range(world.state["aggressors"]):
            sim.spawn(aggressor_loop(index), name=f"aggr-{index}")
        sim.run(until=stop_at)
        return Rep(ops=victim.ok + aggressor.ok,
                   attempted=victim.attempted + aggressor.attempted,
                   failed=victim.failed + aggressor.failed,
                   sim_ns=self.duration_ns, latencies=victim.latencies,
                   writes=sum(state["writes"] for state in writers),
                   extra={"victim_ops": victim.ok,
                          "aggressor_ops": aggressor.ok})

    def layer_metrics(self, primary: Rep, reference: Rep, counters):
        return {"qos.victim_p99_x_alone":
                tail_percentile(primary.latencies)[1] / self.alone_p99_ns,
                "qos.aggressor_share_pct":
                100.0 * primary.extra["aggressor_ops"] / primary.ops}

    def verify(self, world: World, rep: Rep) -> None:
        rep.violations["readback"] = \
            world.state["file"].final_mismatches()
