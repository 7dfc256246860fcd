"""Quickstart: accelerate an on-disk B-tree lookup with a storage BPF chain.

Builds a simulated machine (6 cores + gen-2 Optane), bulk-loads a B+-tree
index into the simulated ext4, installs the library's index-traversal BPF
program on the file descriptor via the special ioctl, and compares one
lookup over the three dispatch paths of the paper's Figure 2:

* baseline  — the application reads and parses one page per level;
* syscall   — the syscall-dispatch hook reissues without leaving the kernel;
* nvme      — the NVMe-driver completion hook recycles the command.

Run: ``python examples/quickstart.py``
"""

from repro.bench.runner import NVM2_BENCH
from repro.core import Hook, StorageBpf
from repro.core.library import index_traversal_program
from repro.kernel import Kernel, KernelConfig
from repro.obs import ObsSession
from repro.sim import Simulator
from repro.structures import BTree, FsBackend
from repro.structures.pages import PAGE_SIZE, search_page

DEPTH_KEYS = 5000  # ~4 levels at fanout 8
FANOUT = 8
TARGET_KEY = 3 * 1234 + 1


def build_machine():
    sim = Simulator()
    kernel = Kernel(sim, NVM2_BENCH, KernelConfig(cores=6))
    bpf = StorageBpf(kernel)
    inode = kernel.fs.create("/index")
    items = [(3 * i + 1, i * 10) for i in range(DEPTH_KEYS)]
    tree = BTree.build(FsBackend(kernel.fs, inode), items, fanout=FANOUT)
    return sim, kernel, bpf, tree


def baseline_lookup(sim, kernel, proc, fd, tree, key):
    """One application-level traversal; returns (value, latency_ns)."""
    start = sim.now
    offset = tree.meta.root_offset
    value = None
    for level in range(tree.depth):
        result = yield from kernel.sys_pread(proc, fd, offset, PAGE_SIZE)
        yield from kernel.cpus.run_thread(kernel.cost.user_process_ns)
        index, child = search_page(result.data, key)
        if child is None:
            break
        if level == tree.depth - 1:
            value = child
        offset = child
    return value, sim.now - start


def main():
    with ObsSession() as obs:  # the kernel built here reports to its bus
        sim, kernel, bpf, tree = build_machine()
    program = index_traversal_program(fanout=FANOUT)
    bpf.verify_program(program)
    print(f"B-tree: {tree.meta.num_keys} keys, depth {tree.depth}, "
          f"fanout {FANOUT}; program: {len(program)} verified insns")

    proc = kernel.spawn_process("app")
    report = {}

    def workload():
        fd = yield from kernel.sys_open(proc, "/index")

        value, ns = yield from baseline_lookup(sim, kernel, proc, fd, tree,
                                               TARGET_KEY)
        report["baseline"] = (value, ns)

        # Install on the syscall-dispatch hook, then look up again.
        yield from bpf.install(proc, fd, program, hook=Hook.SYSCALL)
        start = sim.now
        result = yield from bpf.read_chain(proc, fd, tree.meta.root_offset,
                                           PAGE_SIZE, args=(TARGET_KEY,))
        report["syscall"] = (result.value, sim.now - start)

        # Re-install on the NVMe completion hook.
        yield from bpf.install(proc, fd, program, hook=Hook.NVME)
        start = sim.now
        result = yield from bpf.read_chain(proc, fd, tree.meta.root_offset,
                                           PAGE_SIZE, args=(TARGET_KEY,))
        report["nvme"] = (result.value, sim.now - start)
        return result

    result = kernel.run_syscall(workload())
    expected = (TARGET_KEY - 1) // 3 * 10

    print(f"\nlookup key={TARGET_KEY} (expect value {expected}):")
    baseline_ns = report["baseline"][1]
    for path in ("baseline", "syscall", "nvme"):
        value, ns = report[path]
        print(f"  {path:9s} value={value:<8d} latency={ns / 1000:7.2f} us  "
              f"({baseline_ns / ns:4.2f}x)")
        assert value == expected, path

    recycled = obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle")
    print(f"\nNVMe chain: {result.hops} hops, {recycled} of them recycled "
          "inside the driver interrupt handler")
    print("Per-process resubmission accounting:",
          dict(bpf.accounting.totals))


if __name__ == "__main__":
    main()
