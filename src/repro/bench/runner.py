"""Closed-loop experiment driver and the shared B-tree benchmark rig.

:class:`BtreeBench` is the machine behind Figures 3a-3d: one simulated
kernel + device, one B-tree index file of a requested depth, and the three
lookup implementations being compared — application-level traversal
(baseline), syscall-dispatch-hook chains, and NVMe-driver-hook chains.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.core import Hook, StorageBpf
from repro.core.library import index_traversal_program
from repro.device import LatencyModel
from repro.errors import InvalidArgument
from repro.kernel import CostModel, Kernel, KernelConfig
from repro.obs import events as obs_events
from repro.qos import QosConfig
from repro.sim import LatencyRecorder, RandomStreams, Simulator, ThroughputMeter
from repro.structures import BTree, FsBackend
from repro.structures.pages import PAGE_SIZE, FileBackend, search_page

__all__ = ["BtreeBench", "NVM2_BENCH", "choose_fanout", "run_closed_loop"]

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


class _MemBackend(FileBackend):
    """In-memory backend for building cacheable tree images."""

    def __init__(self):
        self.data = bytearray()

    def _grow(self, end: int) -> None:
        if len(self.data) < end:
            self.data.extend(bytes(end - len(self.data)))

    def read(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset:offset + length])

    def write(self, offset: int, data: bytes) -> None:
        self._grow(offset + len(data))
        self.data[offset:offset + len(data)] = data

    def preallocate(self, offset: int, length: int) -> None:
        self._grow(offset + length)

    @property
    def size(self) -> int:
        return len(self.data)


# Built-tree image cache.  The tree for a (depth, fanout) pair is a pure
# function of those two numbers, but every experiment variant used to
# re-serialise it page by page through the simulated FS — thousands of
# untimed write_sync transactions per BtreeBench.  Building the byte image
# once and blitting it with two bulk writes leaves the FS, extent, and
# media state identical (same preallocation burst, same bytes, meta block
# still allocated last) while skipping the per-page bookkeeping.
_TREE_IMAGE_CACHE: Dict[Tuple[int, int], bytes] = {}


def _tree_image(depth: int, fanout: int) -> bytes:
    image = _TREE_IMAGE_CACHE.get((depth, fanout))
    if image is None:
        num_keys = BTree.keys_for_depth(depth, fanout)
        mem = _MemBackend()
        BTree.build(mem, [(key * 3 + 1, key) for key in range(num_keys)],
                    fanout=fanout)
        image = _TREE_IMAGE_CACHE[(depth, fanout)] = bytes(mem.data)
    return image


def run_closed_loop(sim: Simulator, thread_count: int, duration_ns: int,
                    make_worker: Callable,
                    ) -> Tuple[ThroughputMeter, LatencyRecorder]:
    """Run ``thread_count`` closed-loop workers for ``duration_ns``.

    ``make_worker(index)`` is a generator that performs per-thread setup
    (open, install, ...) and returns a nullary generator function executing
    one operation.  Returns the completed-operation meter and per-operation
    latency recorder.
    """
    if thread_count < 1:
        raise InvalidArgument("thread_count must be >= 1")
    meter = ThroughputMeter()
    latency = LatencyRecorder()
    meter.start(sim.now)
    stop_at = sim.now + duration_ns

    def loop(index: int):
        one_op = yield from make_worker(index)
        while sim.now < stop_at:
            start = sim.now
            yield from one_op()
            latency.record(sim.now - start)
            meter.record(sim.now)

    for index in range(thread_count):
        sim.spawn(loop(index), name=f"worker-{index}")
    sim.run(until=stop_at)
    meter.stop(sim.now)
    return meter, latency


def choose_fanout(depth: int, max_keys: int = 30_000) -> int:
    """The largest fanout (<= 16) keeping a depth-``depth`` tree small."""
    if depth <= 1:
        return 16
    fanout = 16
    while fanout > 2 and fanout ** (depth - 1) + 1 > max_keys:
        fanout -= 1
    return fanout


class BtreeBench:
    """One simulated machine with a B-tree index of the requested depth."""

    def __init__(self, depth: int, cores: int = 6, seed: int = 0,
                 model: LatencyModel = NVM2_BENCH,
                 cost_model: Optional[CostModel] = None,
                 fanout: Optional[int] = None, vm_mode: str = "block",
                 max_chain_hops: int = 64, queue_pairs: int = 1,
                 irq_steering: Optional[bool] = None,
                 qos: Optional[QosConfig] = None):
        self.depth = depth
        self.fanout = fanout or choose_fanout(depth)
        num_keys = BTree.keys_for_depth(depth, self.fanout)
        self.sim = Simulator()
        config = KernelConfig(cores=cores, seed=seed,
                              cost_model=cost_model or CostModel(),
                              queue_pairs=queue_pairs,
                              irq_steering=irq_steering, qos=qos)
        self.kernel = Kernel(self.sim, model, config)
        self.bpf = StorageBpf(self.kernel, max_chain_hops=max_chain_hops)
        self.vm_mode = vm_mode
        inode = self.kernel.fs.create("/index")
        image = _tree_image(depth, self.fanout)
        backend = FsBackend(self.kernel.fs, inode)
        backend.preallocate(PAGE_SIZE, len(image) - PAGE_SIZE)
        backend.write(PAGE_SIZE, image[PAGE_SIZE:])
        backend.write(0, image[:PAGE_SIZE])
        self.tree = BTree(backend)
        if self.tree.depth != depth:
            raise InvalidArgument(
                f"built depth {self.tree.depth}, wanted {depth}")
        self.keys = [key * 3 + 1 for key in range(num_keys)]
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

    def chain_worker(self, hook: Hook, tenant: Optional[str] = None):
        """Factory of workers using the installed-hook chain path.

        ``tenant`` bills every worker process (and so its chain
        resubmissions and NVMe commands) to that QoS tenant.
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
                yield from self.bpf.read_chain(proc, fd, root, PAGE_SIZE,
                                               args=(key,))

            return one_op

        return make_worker

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    def throughput(self, system: str, threads: int,
                   duration_ns: int = 20_000_000) -> float:
        """Closed-loop lookups/sec for 'baseline' | 'syscall' | 'nvme'."""
        make_worker = self._worker_for(system)
        meter, _latency = run_closed_loop(self.sim, threads, duration_ns,
                                          make_worker)
        return meter.ops_per_sec()

    def mean_latency(self, system: str,
                     operations: int = 200) -> float:
        """Single-thread mean lookup latency over ``operations`` ops."""
        make_worker = self._worker_for(system)
        latency = LatencyRecorder()

        def loop():
            one_op = yield from make_worker(0)
            for _ in range(operations):
                start = self.sim.now
                yield from one_op()
                latency.record(self.sim.now - start)

        self.sim.run_process(loop())
        return latency.mean

    def _worker_for(self, system: str):
        if system == "baseline":
            return self.baseline_worker
        if system == "syscall":
            return self.chain_worker(Hook.SYSCALL)
        if system == "nvme":
            return self.chain_worker(Hook.NVME)
        raise InvalidArgument(f"unknown system {system!r}")
