"""BPF maps as chain-visible state (the paper's "outside state" in §1/§4).

Storage programs frequently need state beyond the block in flight — here a
chain program keeps a per-depth histogram in an array map while it
traverses, and user space reads the statistics afterwards, exactly the
program/application split real eBPF deployments use.
"""

import pytest

from chainutil import build_machine, linked_file_bytes
from repro.core import Hook, storage_ctx_layout
from repro.ebpf import ArrayMap, HashMap, Program, assemble

# Walker that also bumps histogram[chain_depth] in an array map each hop.
COUNTING_WALKER = """
    mov   r6, r1          ; save ctx
    ldxdw r7, [r1+24]     ; chain_depth
    stxw  [r10-4], r7     ; map key = depth (u32)
    mov   r1, 1           ; map id
    mov   r2, r10
    add   r2, -4
    call  map_lookup
    jeq   r0, 0, after
    ldxdw r2, [r0+0]
    add   r2, 1
    stxdw [r0+0], r2      ; histogram[depth] += 1
after:
    ldxdw r2, [r6+0]      ; data pointer
    ldxdw r3, [r2+0]      ; next offset
    lddw  r4, 0xffffffffffffffff
    jeq   r3, r4, done
    mov   r5, 1
    stxdw [r6+72], r5     ; ACTION_RESUBMIT
    stxdw [r6+80], r3
    mov   r0, 0
    exit
done:
    ldxdw r5, [r2+8]
    mov   r4, 2
    stxdw [r6+72], r4     ; ACTION_RETURN_VALUE
    stxdw [r6+88], r5
    mov   r0, 0
    exit
"""

ORDER = [0, 3, 1, 4, 2]


def make_machine(hook=Hook.NVME, lookups=5):
    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes(ORDER))
    histogram = ArrayMap(value_size=8, max_entries=16, name="histogram")
    program = Program(assemble(COUNTING_WALKER, bpf.helpers.names()),
                      storage_ctx_layout(4096, 256), name="counting-walker")
    bpf.verify_program(program, maps={1: histogram})
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.install(proc, fd, program, hook=hook,
                               maps={1: histogram})
        results = []
        for _ in range(lookups):
            result = yield from bpf.read_chain(proc, fd, 0, 4096)
            results.append(result)
        return results

    results = kernel.run_syscall(workload())
    return histogram, results


@pytest.mark.parametrize("hook", [Hook.NVME, Hook.SYSCALL])
def test_chain_program_updates_map_per_hop(hook):
    lookups = 4
    histogram, results = make_machine(hook=hook, lookups=lookups)
    for result in results:
        assert result.value == 1000 + ORDER[-1]
    # chain_depth runs 1..len(ORDER) across each lookup.
    for depth in range(1, len(ORDER) + 1):
        count = int.from_bytes(histogram.lookup_index(depth), "little")
        assert count == lookups, f"depth {depth}"
    assert int.from_bytes(histogram.lookup_index(0), "little") == 0
    assert int.from_bytes(histogram.lookup_index(6), "little") == 0


def test_map_state_visible_to_user_space_between_chains():
    histogram, _results = make_machine(lookups=1)
    before = int.from_bytes(histogram.lookup_index(1), "little")
    assert before == 1
    # User space may also mutate the shared map between chain runs.
    histogram.update((1).to_bytes(4, "little"), (100).to_bytes(8, "little"))
    histogram2, _ = make_machine(lookups=2)
    assert int.from_bytes(histogram2.lookup_index(1), "little") == 2


def test_install_with_unknown_map_id_rejected():
    from repro.errors import VerifierError

    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes(ORDER))
    program = Program(assemble(COUNTING_WALKER, bpf.helpers.names()),
                      storage_ctx_layout(4096, 256), name="no-map")
    with pytest.raises(VerifierError, match="unknown map id"):
        bpf.verify_program(program, maps={})


def test_proof_against_other_map_sizes_is_not_trusted_at_install():
    """``Program.verified`` was a bare flag: a proof made against an 8-byte
    map value let the same Program install over a 4-byte one, and the
    "verified" walker then trapped in the VM reading ``[r0+0]`` as a u64.
    The install must prove it again, against the maps it is given."""
    from repro.errors import VerifierError

    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes(ORDER))
    program = Program(assemble(COUNTING_WALKER, bpf.helpers.names()),
                      storage_ctx_layout(4096, 256), name="counting-walker")
    wide = ArrayMap(value_size=8, max_entries=16)
    bpf.verify_program(program, maps={1: wide})
    narrow = ArrayMap(value_size=4, max_entries=16)
    proc = kernel.spawn_process()

    def workload(maps):
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.install(proc, fd, program, maps=maps)
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    with pytest.raises(VerifierError, match="out of bounds of 'map_value:1'"):
        kernel.run_syscall(workload({1: narrow}))
    # The proof it does hold is still good for maps of the proved sizes.
    assert kernel.run_syscall(workload({1: wide})).value == 1000 + ORDER[-1]


def test_hash_map_works_in_chain_too():
    source = COUNTING_WALKER  # same program; hash map instead of array
    sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes(ORDER))
    stats = HashMap(key_size=4, value_size=8, max_entries=32, name="stats")
    for depth in range(1, len(ORDER) + 1):
        stats.update(depth.to_bytes(4, "little"), bytes(8))
    program = Program(assemble(source, bpf.helpers.names()),
                      storage_ctx_layout(4096, 256), name="hash-walker")
    bpf.verify_program(program, maps={1: stats})
    proc = kernel.spawn_process()

    def workload():
        fd = yield from kernel.sys_open(proc, "/list")
        yield from bpf.install(proc, fd, program, maps={1: stats})
        result = yield from bpf.read_chain(proc, fd, 0, 4096)
        return result

    result = kernel.run_syscall(workload())
    assert result.value == 1000 + ORDER[-1]
    for depth in range(1, len(ORDER) + 1):
        value = stats.lookup(depth.to_bytes(4, "little"))
        assert int.from_bytes(value, "little") == 1
