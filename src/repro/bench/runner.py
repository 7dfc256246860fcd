"""The experiment rig: how a cell gets its world and its loop.

Every experiment in :mod:`repro.bench.experiments` is the same shape of
run: build a machine with some files on it, start populations of
closed-loop clients, read meters.  The shared pieces live here (and one
in :mod:`repro.net`), so a cell writes neither its own timing loop nor
its own copy of a standard client:

1. :func:`run_closed_loop` — any number of ``(count, make_worker)``
   populations side by side for a fixed simulated duration; one
   ``(meter, latency)`` pair per population.
2. :func:`mean_latency` — the count-bounded single-client loop.
3. :func:`load_btree` — the one loader of the benchmark B-tree.
4. :func:`plain_reader` — the 512 B random-read worker.
5. :meth:`BtreeBench.chain_worker` — the chain client, plain or robust
   (``max_retries``) protocol.
6. :meth:`repro.net.StorageTarget.connect` — open a connection, attach
   it, hand back its :class:`~repro.net.RemoteClient`.

:class:`BtreeBench` is the machine behind Figures 3a-3d: one simulated
kernel + device, one B-tree index file of a requested depth, and the three
lookup implementations being compared — application-level traversal
(baseline), syscall-dispatch-hook chains, and NVMe-driver-hook chains.

A *worker factory* ``make_worker(index)`` is a generator that performs
one client's set-up inside that client's own simulated process (spawn
the kernel process, open, install, ...) and returns a nullary generator
function executing one operation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.core import Hook, StorageBpf
from repro.core.library import index_traversal_program
from repro.device import LatencyModel
from repro.errors import InvalidArgument
from repro.kernel import Kernel, KernelConfig
from repro.obs import events as obs_events
from repro.qos import QosConfig
from repro.sim import LatencyRecorder, RandomStreams, Simulator, ThroughputMeter
from repro.structures import BTree
from repro.structures.pages import PAGE_SIZE, search_page

__all__ = ["BtreeBench", "NVM2_BENCH", "choose_fanout", "load_btree",
           "mean_latency", "plain_reader", "run_closed_loop"]

#: The deterministic gen-2 Optane used by all Figure 3 experiments.
NVM2_BENCH = LatencyModel("nvm2", read_ns=3224, write_ns=3600,
                          parallelism=7, jitter=0.0)

# Verify-once cache: the traversal program for a given fanout is pure and
# stateless, and every experiment variant (per mode, per depth, per round)
# builds a fresh BtreeBench around the same program.  Static verification
# was the single largest cost of small benchmark runs; sharing the verified
# Program is exactly the paper's install contract (verify once, reuse).
_PROGRAM_CACHE: Dict[int, "object"] = {}


def _bench_program(fanout: int):
    program = _PROGRAM_CACHE.get(fanout)
    if program is None:
        program = _PROGRAM_CACHE[fanout] = index_traversal_program(
            fanout=fanout)
    return program


# Built-tree image cache.  The tree for a (depth, fanout) pair is a pure
# function of those two numbers, but every experiment variant used to
# re-serialise it page by page through the simulated FS — thousands of
# untimed write_sync transactions per BtreeBench.  Building the byte image
# once and blitting it with two bulk writes leaves the FS, extent, and
# media state identical (same preallocation burst, same bytes, meta block
# still allocated last; tests/test_bench_harness.py compares the two
# loaders) while skipping the per-page bookkeeping.
_TREE_IMAGE_CACHE: Dict[Tuple[int, int], bytes] = {}


def _tree_image(depth: int, fanout: int) -> bytes:
    image = _TREE_IMAGE_CACHE.get((depth, fanout))
    if image is None:
        num_keys = BTree.keys_for_depth(depth, fanout)
        image = _TREE_IMAGE_CACHE[(depth, fanout)] = BTree.build_image(
            [(key * 3 + 1, key) for key in range(num_keys)], fanout=fanout)
    return image


def run_closed_loop(sim: Simulator, duration_ns: int,
                    *populations: Tuple[int, Callable],
                    ) -> List[Tuple[ThroughputMeter, LatencyRecorder]]:
    """Run closed-loop client populations side by side for ``duration_ns``.

    Each population is a ``(count, make_worker)`` pair: ``count`` workers
    built by the worker factory ``make_worker(index)``.  Populations are
    spawned in argument order and workers in index order, which fixes
    the event sequence.  An operation that completes several operations
    at once (an io_uring batch) returns how many; ``None`` counts one.
    Returns one ``(meter, latency)`` pair per population: completed
    operations and per-call latency.
    """
    for count, _make_worker in populations:
        if count < 1:
            raise InvalidArgument("a population needs count >= 1")
    stop_at = sim.now + duration_ns

    def loop(make_worker, index, meter, latency):
        one_op = yield from make_worker(index)
        while sim.now < stop_at:
            start = sim.now
            completed = yield from one_op()
            latency.record(sim.now - start)
            meter.record(sim.now, 1 if completed is None else completed)

    results = []
    for count, make_worker in populations:
        meter, latency = ThroughputMeter(), LatencyRecorder()
        meter.start(sim.now)
        results.append((meter, latency))
        for index in range(count):
            sim.spawn(loop(make_worker, index, meter, latency),
                      name=f"worker-{index}")
    sim.run(until=stop_at)
    for meter, _latency in results:
        meter.stop(sim.now)
    return results


def mean_latency(kernel: Kernel, make_worker: Callable,
                 operations: int) -> float:
    """Mean latency (ns) of ``operations`` back-to-back ops of one client.

    ``make_worker`` is a worker factory as for :func:`run_closed_loop`;
    the client is worker 0 and runs alone, to completion.
    """
    sim = kernel.sim
    latency = LatencyRecorder()

    def loop():
        one_op = yield from make_worker(0)
        for _ in range(operations):
            start = sim.now
            yield from one_op()
            latency.record(sim.now - start)

    kernel.run_syscall(loop())
    return latency.mean


def plain_reader(kernel: Kernel, path: str, streams: RandomStreams,
                 prefix: str) -> Callable:
    """Factory of workers issuing 512 B random reads over ``path``'s
    first MiB.  Worker ``index`` is the kernel process ``prefix-index``
    and draws offsets from the ``streams`` fork of the same name."""

    def make_worker(index: int):
        proc = kernel.spawn_process(f"{prefix}-{index}")
        fd = yield from kernel.sys_open(proc, path)
        rng = streams.fork(f"{prefix}-{index}").stream("off")

        def one_op():
            yield from kernel.sys_pread(proc, fd, rng.randrange(2048) * 512,
                                        512)

        return one_op

    return make_worker


def choose_fanout(depth: int, max_keys: int = 30_000) -> int:
    """The largest fanout (<= 16) keeping a depth-``depth`` tree small."""
    if depth <= 1:
        return 16
    fanout = 16
    while fanout > 2 and fanout ** (depth - 1) + 1 > max_keys:
        fanout -= 1
    return fanout


def load_btree(fs, path: str, depth: int) -> BTree:
    """Create ``path`` on ``fs`` holding the benchmark B-tree of ``depth``.

    The tree maps key ``3k + 1`` to ``k`` for ``k`` in
    ``range(BTree.keys_for_depth(depth, choose_fanout(depth)))``.  The
    file is written from the cached image (see ``_TREE_IMAGE_CACHE``)
    without simulated time, as views: the device's runs share the
    image's bytes instead of copying them.
    """
    tree = BTree.write_image(fs, path,
                             _tree_image(depth, choose_fanout(depth)))
    if tree.depth != depth:
        raise InvalidArgument(f"built depth {tree.depth}, wanted {depth}")
    return tree


class BtreeBench:
    """One simulated machine with a B-tree index of the requested depth."""

    def __init__(self, depth: int, cores: int = 6, seed: int = 0,
                 model: LatencyModel = NVM2_BENCH, vm_mode: str = "block",
                 queue_pairs: int = 1, irq_steering: bool = False,
                 qos: Optional[QosConfig] = None):
        self.depth = depth
        self.fanout = choose_fanout(depth)
        num_keys = BTree.keys_for_depth(depth, self.fanout)
        self.sim = Simulator()
        config = KernelConfig(cores=cores, seed=seed,
                              queue_pairs=queue_pairs,
                              irq_steering=irq_steering, qos=qos)
        self.kernel = Kernel(self.sim, model, config)
        self.bpf = StorageBpf(self.kernel)
        self.vm_mode = vm_mode
        self.tree = load_btree(self.kernel.fs, "/index", depth)
        self.keys = range(1, 3 * num_keys + 1, 3)  # key 3k + 1 for each k
        self.program = _bench_program(self.fanout)
        if not self.program.verified:
            self.bpf.verify_program(self.program)
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------------
    # Worker factories for run_closed_loop
    # ------------------------------------------------------------------

    def _key_stream(self, index: int):
        rng = self.streams.fork(f"thread-{index}").stream("keys")
        keys = self.keys
        return lambda: keys[rng.randrange(len(keys))]

    def baseline_worker(self, index: int):
        """App-level traversal: one read() + user-space parse per level."""
        kernel = self.kernel
        proc = kernel.spawn_process(f"base-{index}")
        fd = yield from kernel.sys_open(proc, "/index")
        next_key = self._key_stream(index)
        root = self.tree.meta.root_offset
        depth = self.depth
        user_ns = kernel.cost.user_process_ns

        def one_op():
            key = next_key()
            offset = root
            for _level in range(depth):
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                # Application-side page parse + next-pointer computation.
                yield from kernel.cpus.run_thread(user_ns)
                if kernel.bus.enabled:
                    kernel.bus.emit(obs_events.APP_PROCESS, kernel.sim.now,
                                    cpu_ns=user_ns, path="normal")
                _index, child = search_page(result.data, key)
                if child is None:
                    return
                offset = child

        return one_op

    def chain_worker(self, hook: Hook, tenant: Optional[str] = None,
                     max_retries: Optional[int] = None):
        """Factory of workers using the installed-hook chain path.

        ``tenant`` bills every worker process (and so its chain
        resubmissions and NVMe commands) to that QoS tenant.  With
        ``max_retries`` set the workers run the robust protocol
        (:meth:`~repro.core.api.StorageBpf.read_chain_robust` with that
        retry bound) in place of a bare ``read_chain``.
        """

        def make_worker(index: int):
            kernel = self.kernel
            proc = kernel.spawn_process(f"chain-{index}", tenant=tenant)
            fd = yield from kernel.sys_open(proc, "/index")
            yield from self.bpf.install(proc, fd, self.program, hook=hook,
                                        vm_mode=self.vm_mode)
            next_key = self._key_stream(index)
            root = self.tree.meta.root_offset

            def one_op():
                key = next_key()
                if max_retries is None:
                    yield from self.bpf.read_chain(proc, fd, root, PAGE_SIZE,
                                                   args=(key,))
                else:
                    yield from self.bpf.read_chain_robust(
                        proc, fd, root, PAGE_SIZE, args=(key,),
                        max_retries=max_retries)

            return one_op

        return make_worker

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    def throughput(self, system: str, threads: int,
                   duration_ns: int = 20_000_000) -> float:
        """Closed-loop lookups/sec for 'baseline' | 'syscall' | 'nvme'."""
        [(meter, _latency)] = run_closed_loop(
            self.sim, duration_ns, (threads, self._worker_for(system)))
        return meter.ops_per_sec()

    def mean_latency(self, system: str,
                     operations: int = 200) -> float:
        """Single-thread mean lookup latency over ``operations`` ops."""
        return mean_latency(self.kernel, self._worker_for(system),
                            operations)

    def _worker_for(self, system: str):
        if system == "baseline":
            return self.baseline_worker
        if system == "syscall":
            return self.chain_worker(Hook.SYSCALL)
        if system == "nvme":
            return self.chain_worker(Hook.NVME)
        raise InvalidArgument(f"unknown system {system!r}")
