"""Figure 2, animated: trace the three dispatch paths through the stack.

For one depth-4 B-tree lookup per path, this example prints which layer
handled each I/O and where the reissue decision was made, using the NVMe
completions on the tracepoint bus and the kernel's accounting — a textual
rendering of the paper's Figure 2 diagram.  Each I/O line gives its
submit instant as an offset from the start of the lookup.

Run: ``python examples/dispatch_paths.py``
"""

from repro.bench.runner import NVM2_BENCH
from repro.core import Hook, StorageBpf
from repro.core.library import index_traversal_program
from repro.kernel import Kernel, KernelConfig
from repro.obs import TraceBus, events
from repro.sim import Simulator
from repro.structures import BTree, FsBackend
from repro.structures.pages import PAGE_SIZE, search_page

FANOUT = 4
DEPTH = 4


def fresh_machine():
    """(sim, kernel, bpf, tree, completed): ``completed`` collects every
    NVMe completion the bus reports."""
    sim = Simulator()
    bus = TraceBus(enabled=True)
    completed = []
    bus.subscribe(completed.append, events.NVME_COMPLETE)
    kernel = Kernel(sim, NVM2_BENCH, KernelConfig(bus=bus))
    bpf = StorageBpf(kernel)
    inode = kernel.fs.create("/index")
    num_keys = BTree.keys_for_depth(DEPTH, FANOUT)
    items = [(i, i) for i in range(num_keys)]
    tree = BTree.build(FsBackend(kernel.fs, inode), items, fanout=FANOUT)
    return sim, kernel, bpf, tree, completed


def describe(completed, label, start_ns, elapsed_ns, extra=""):
    print(f"\n{label}  ({elapsed_ns / 1000:.2f} us total{extra})")
    for event in completed:
        submit = event.ts - event.get("service_ns") - event.get("queue_ns")
        print(f"    t+{(submit - start_ns) / 1000:6.2f}us "
              f"lba={event.get('lba'):<6d} [{event.get('source')}]")


def main():
    key = 37

    # ---- Path 1: user-space dispatch (Figure 2, left) -------------------
    sim, kernel, bpf, tree, completed = fresh_machine()
    proc = kernel.spawn_process()

    def baseline():
        fd = yield from kernel.sys_open(proc, "/index")
        completed.clear()
        start = sim.now
        offset = tree.meta.root_offset
        for _level in range(DEPTH):
            result = yield from kernel.sys_pread(proc, fd, offset, PAGE_SIZE)
            yield from kernel.cpus.run_thread(kernel.cost.user_process_ns)
            _idx, child = search_page(result.data, key)
            offset = child
        return start, sim.now - start, kernel.syscall_count

    start, elapsed, syscalls = kernel.run_syscall(baseline())
    describe(completed, "user-space dispatch: 4 read() calls, 4 full stack "
             "traversals, 8 boundary crossings", start, elapsed,
             f", {syscalls - 1} syscalls")

    # ---- Path 2: syscall-dispatch hook (Figure 2, middle) ----------------
    sim, kernel, bpf, tree, completed = fresh_machine()
    program = index_traversal_program(fanout=FANOUT)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def syscall_hook():
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bpf.install(proc, fd, program, hook=Hook.SYSCALL)
        completed.clear()
        start = sim.now
        result = yield from bpf.read_chain(proc, fd, tree.meta.root_offset,
                                           PAGE_SIZE, args=(key,))
        return start, sim.now - start, result

    start, elapsed, result = kernel.run_syscall(syscall_hook())
    describe(completed, "syscall-dispatch hook: 1 read() call, reissues "
             "loop inside the dispatch layer (ext4+BIO still run per hop)",
             start, elapsed, f", {result.hops} hops")

    # ---- Path 3: NVMe-driver hook (Figure 2, right) ----------------------
    sim, kernel, bpf, tree, completed = fresh_machine()
    program = index_traversal_program(fanout=FANOUT)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def nvme_hook():
        fd = yield from kernel.sys_open(proc, "/index")
        yield from bpf.install(proc, fd, program, hook=Hook.NVME)
        completed.clear()
        start = sim.now
        result = yield from bpf.read_chain(proc, fd, tree.meta.root_offset,
                                           PAGE_SIZE, args=(key,))
        return start, sim.now - start, result

    start, elapsed, result = kernel.run_syscall(nvme_hook())
    describe(completed, "NVMe-driver hook: 1 read() call, descriptor "
             "recycled in the completion interrupt (only driver+device per "
             "hop)", start, elapsed, f", {result.hops} hops")
    print(f"\n    found value {result.value} (found flag {result.value2})")


if __name__ == "__main__":
    main()
