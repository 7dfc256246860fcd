"""cluster_ycsb — YCSB over four replicated shards behind a fabric.

Wire framing, transport windows, fabric transit, replication round
trips and journalled PUTs dominate; VM work per op is small.  READs
alternate a routed GET and a pushed-down index lookup; UPDATE and
INSERT become replicated PUTs.  The reference does every index lookup
naively — one READ RPC per tree level against the key's primary.
"""

from __future__ import annotations

from repro.bench.runner import NVM2_BENCH
from repro.cluster import ClusterClient, StorageCluster
from repro.core.library import index_traversal_program
from repro.errors import ReproError
from repro.sim import Simulator
from repro.sim.engine import AllOf
from repro.sim.rng import RandomStreams
from repro.structures import BTree
from repro.workloads import OpType, YcsbWorkload

from bench_e2e.workloads.common import Rep, Workload, World, sha

INDEX_PATH = "/cindex"
INDEX_FANOUT = 16
INDEX_DEPTH = 4


def preload_value(key: int) -> int:
    return key * 7 + 1


def get_ok(key: int, preloaded: int, value, version: int,
           found: bool) -> bool:
    """A GET's reply against what must be there.  Preloaded keys always
    exist, and at version 1 still hold the preload; newer versions are
    checked by ``ClusterClient``'s own read-your-writes accounting.
    Inserted keys may legitimately not exist yet (another worker's PUT
    is still in flight)."""
    if key < preloaded:
        if not found or version < 1:
            return False
        return version > 1 or value == preload_value(key)
    return True


def acked_ok(want, value, version: int, found: bool) -> bool:
    """An acked write read back: present, at its version or newer."""
    want_version, want_value = want
    if not found or version < want_version:
        return False
    return version > want_version or value == want_value


class ClusterYcsb(Workload):
    name = "cluster_ycsb"
    why = ("net (wire, transport, fabric), cluster replication and "
           "journalled PUTs dominate; VM work per op is small")
    clients = "closed loop, 8 workers sharing one ClusterClient"
    op = latency_op = ("one client call: get, index_get (pushdown) or "
                       "replicated put")
    reference = ("the same op list with every index lookup done naively "
                 "(one READ RPC per level)")
    idle_layers = ("qos", "compact")

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        self.shards = 4
        self.workers = 8
        self.preloaded = 512
        self.ops = 300 if quick else 3000
        self.index_keys = BTree.keys_for_depth(INDEX_DEPTH, INDEX_FANOUT)

    def setup(self) -> None:
        self.program = index_traversal_program(fanout=INDEX_FANOUT)

    def build(self, path: str) -> World:
        sim = Simulator()
        # The cluster's own seed stays fixed: --seed reaches only the ops.
        cluster = StorageCluster(
            sim, self.shards, model=NVM2_BENCH, cores=2,
            capacity_keys=self.preloaded + self.ops + 8, rtt_us=10)
        cluster.preload([(key, preload_value(key))
                         for key in range(self.preloaded)])
        root = cluster.build_index(
            INDEX_PATH, [(key * 3 + 1, key)
                         for key in range(self.index_keys)],
            fanout=INDEX_FANOUT)
        client = ClusterClient(cluster, "ycsb")
        sim.run_process(client.install_chains(INDEX_PATH, self.program))
        rng = RandomStreams(self.seed).stream("cluster-ycsb")
        ycsb = YcsbWorkload(self.preloaded, rng, mix="paper")
        plan = [op for op in ycsb.operations(self.ops)
                if op.op is not OpType.SCAN]
        return World(sim, path,
                     [target.kernel for target in cluster.targets],
                     [target.bpf for target in cluster.targets],
                     cluster=cluster,
                     state={"client": client, "plan": plan, "root": root})

    def run(self, world: World, op_span) -> Rep:
        sim = world.sim
        client: ClusterClient = world.state["client"]
        cluster: StorageCluster = world.cluster
        plan = world.state["plan"]
        root = world.state["root"]
        naive = world.path == "reference"
        counts = {"attempted": 0, "failed": 0, "writes": 0}
        latencies = []

        def index_get(key):
            index_key = (key % self.index_keys) * 3 + 1
            if naive:
                target = cluster.primary_for(index_key)
                value, found, _rpcs = \
                    yield from client.remotes[target].remote_btree_get(
                        index_key, mode="naive", path=INDEX_PATH,
                        root_offset=root)
            else:
                value, found = yield from client.index_get(
                    index_key, root_offset=root)
            return bool(found) and value == key % self.index_keys

        def one_op(op, read_number):
            if op.op is OpType.READ:
                if read_number % 2:
                    ok = yield from index_get(op.key)
                    return ok
                value, version, found = yield from client.get(op.key)
                return get_ok(op.key, self.preloaded, value, version, found)
            counts["writes"] += 1
            version = yield from client.put(op.key, op.value)
            return version >= 1

        def worker(assigned):
            reads = 0
            for op in assigned:
                if op.op is OpType.READ:
                    reads += 1
                start = sim.now
                try:
                    ok = yield from op_span(one_op(op, reads))
                except ReproError:
                    ok = False
                counts["attempted"] += 1
                if ok:
                    latencies.append(sim.now - start)
                else:
                    counts["failed"] += 1

        timing = {}

        def driver():
            start = sim.now
            procs = [sim.spawn(worker(plan[w::self.workers]),
                               name=f"ycsb-{w}")
                     for w in range(self.workers)]
            yield AllOf(sim, procs)
            timing["elapsed"] = sim.now - start

        sim.run_process(driver())
        return Rep(ops=counts["attempted"] - counts["failed"],
                   attempted=counts["attempted"], failed=counts["failed"],
                   sim_ns=timing["elapsed"], latencies=latencies,
                   writes=counts["writes"])

    def verify(self, world: World, rep: Rep) -> None:
        """Every acked write is read back at >= its acked version."""
        client: ClusterClient = world.state["client"]
        lost = 0
        image = []

        def reader():
            nonlocal lost
            for key in sorted(client.acked):
                value, version, found = yield from client.get(key)
                if not acked_ok(client.acked[key], value, version, found):
                    lost += 1
                image.append(f"{key}:{version}:{value};")

        world.sim.run_process(reader())
        rep.digest = sha("".join(image).encode())
        rep.violations.update(lost_acked=lost,
                              stale_reads=client.stale_reads,
                              failovers=world.cluster.failovers)

    def layer_metrics(self, primary: Rep, reference: Rep, counters):
        return {f"cluster.{key}": count
                for key, count in primary.violations.items()}

    def self_test(self):
        return {
            "get_value": get_ok(3, 512, preload_value(3), 1, True)
            and not get_ok(3, 512, 5, 1, True)
            and not get_ok(3, 512, None, 0, False),
            "acked_readback": acked_ok((2, 9), 9, 2, True)
            and not acked_ok((2, 9), 8, 2, True)
            and not acked_ok((2, 9), 9, 1, True)
            and not acked_ok((2, 9), None, 0, False),
        }
