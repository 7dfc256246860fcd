"""Key/value separation: chaining across *two* data structures.

WiscKey-style stores keep a compact B-tree index whose leaves point into a
value log.  A lookup is therefore an index traversal **plus one more
dependent I/O** — the exact "auxiliary request" pattern the paper targets.
The two-phase BPF program walks the index and dereferences the log record
in a single kernel chain; only the final record block surfaces to user
space.

Run: ``python examples/wisckey_store.py``
"""

from repro.bench.runner import NVM2_BENCH
from repro.core import StorageBpf
from repro.core.library import wisckey_get_program
from repro.kernel import Kernel, KernelConfig
from repro.obs import ObsSession
from repro.sim import Simulator
from repro.structures import FsBackend, WisckeyStore
from repro.structures.pages import PAGE_SIZE, search_page

NUM_KEYS = 4000
FANOUT = 16


def main():
    sim = Simulator()
    with ObsSession() as obs:  # the kernel built here reports to its bus
        kernel = Kernel(sim, NVM2_BENCH, KernelConfig(cores=6))
    bpf = StorageBpf(kernel)

    inode = kernel.fs.create("/store")
    items = [(key * 5, f"value-for-{key}".encode())
             for key in range(NUM_KEYS)]
    store = WisckeyStore.build(FsBackend(kernel.fs, inode), items,
                               fanout=FANOUT)
    print(f"store: {NUM_KEYS} records, index depth {store.tree.depth}, "
          f"{store.hops_per_get()} dependent I/Os per get")

    program = wisckey_get_program(fanout=FANOUT)
    bpf.verify_program(program)
    proc = kernel.spawn_process("wk-app")
    probes = [0, 5 * 1234, 5 * 3999, 7]  # three hits, one miss
    timings = {}

    def workload():
        fd = yield from kernel.sys_open(proc, "/store")

        # Baseline: application walks index pages, then reads the record.
        for probe in probes:
            start = sim.now
            offset = store.tree.meta.root_offset
            payload = None
            for _level in range(store.tree.depth):
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                yield from kernel.cpus.run_thread(
                    kernel.cost.user_process_ns)
                _idx, child = search_page(result.data, probe)
                if child is None:
                    break
                offset = child
            else:
                result = yield from kernel.sys_pread(proc, fd, offset,
                                                     PAGE_SIZE)
                yield from kernel.cpus.run_thread(
                    kernel.cost.user_process_ns)
                key, payload = WisckeyStore.parse_record(result.data)
                if key != probe:
                    payload = None
            timings.setdefault(probe, {})["baseline"] = \
                (payload, sim.now - start)

        # Accelerated: one chain does index + log in the kernel.
        yield from bpf.install(proc, fd, program)
        for probe in probes:
            start = sim.now
            result = yield from bpf.read_chain_robust(
                proc, fd, store.tree.meta.root_offset, PAGE_SIZE,
                args=(probe,))
            payload = None
            if result.value2 == 1:
                _key, payload = WisckeyStore.parse_record(result.data)
            timings[probe]["chain"] = (payload, sim.now - start)

    kernel.run_syscall(workload())

    print(f"\n{'key':>8s}  {'result':20s} {'baseline':>10s} {'chain':>10s}"
          f" {'speedup':>8s}")
    for probe in probes:
        base_payload, base_ns = timings[probe]["baseline"]
        chain_payload, chain_ns = timings[probe]["chain"]
        assert base_payload == chain_payload == store.get(probe)
        shown = (base_payload or b"<miss>").decode()
        print(f"{probe:8d}  {shown:20s} {base_ns / 1000:9.2f}u "
              f"{chain_ns / 1000:9.2f}u {base_ns / chain_ns:7.2f}x")

    recycled = obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle")
    print(f"\ndescriptors recycled in the completion interrupt: {recycled} "
          f"(index hops + value-log dereferences)")


if __name__ == "__main__":
    main()
