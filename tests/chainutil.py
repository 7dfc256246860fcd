"""Shared fixtures for chain tests: a linked-block file and its walker.

The linked-block structure is the smallest possible "dependent lookup"
workload: each 4 KiB block holds the file offset of the next block at byte 0
(``0xffff_ffff_ffff_ffff`` terminates) and a payload value at byte 8.  The
walker program resubmits until the terminator, then returns the payload.
"""

import struct

from repro.device import LatencyModel
from repro.ebpf import Program, assemble
from repro.core import Hook, StorageBpf, storage_ctx_layout
from repro.kernel import Kernel, KernelConfig
from repro.sim import Simulator

NVM2_EXACT = LatencyModel("nvm2-exact", read_ns=3224, write_ns=3600,
                          parallelism=8, jitter=0.0)

END = 0xFFFFFFFFFFFFFFFF

WALKER_SRC = """
    ldxdw r2, [r1+0]      ; data pointer
    ldxdw r3, [r2+0]      ; next offset
    lddw  r4, 0xffffffffffffffff
    jeq   r3, r4, done
    mov   r5, 1           ; ACTION_RESUBMIT
    stxdw [r1+72], r5
    stxdw [r1+80], r3
    mov   r0, 0
    exit
done:
    ldxdw r6, [r2+8]      ; payload
    mov   r5, 2           ; ACTION_RETURN_VALUE
    stxdw [r1+72], r5
    stxdw [r1+88], r6
    mov   r0, 0
    exit
"""

#: The walker ending the list with action 3, which no hook defines: a
#: verified program that asks for something the kernel cannot do.
UNKNOWN_ACTION_SRC = WALKER_SRC.replace(
    "mov   r5, 2           ; ACTION_RETURN_VALUE",
    "mov   r5, 3           ; no such action")


def linked_file_bytes(order, payload_base=1000):
    """Bytes of a file whose blocks chain in ``order`` (block indices)."""
    nblocks = max(order) + 1
    data = bytearray(nblocks * 4096)
    for position, block in enumerate(order):
        nxt = order[position + 1] * 4096 if position + 1 < len(order) else END
        struct.pack_into("<QQ", data, block * 4096, nxt,
                         payload_base + block)
    return bytes(data)


def build_machine(model=NVM2_EXACT, max_chain_hops=64, **config_kwargs):
    """(sim, kernel, bpf); ``config_kwargs`` go to :class:`KernelConfig`."""
    sim = Simulator()
    kernel = Kernel(sim, model, KernelConfig(**config_kwargs))
    bpf = StorageBpf(kernel, max_chain_hops=max_chain_hops)
    return sim, kernel, bpf


def walker_program(bpf, name="walker", block_size=4096, source=WALKER_SRC):
    program = Program(assemble(source, bpf.helpers.names()),
                      storage_ctx_layout(block_size, 256), name=name)
    bpf.verify_program(program)
    return program


def install_walker(sim, kernel, bpf, path, hook=Hook.NVME, vm_mode="block",
                   proc=None, block_size=4096, source=WALKER_SRC):
    """Open ``path``, install the walker (or ``source``); returns
    (proc, fd)."""
    proc = proc or kernel.spawn_process()
    program = walker_program(bpf, block_size=block_size, source=source)

    def setup():
        fd = yield from kernel.sys_open(proc, path)
        yield from bpf.install(proc, fd, program, hook=hook,
                               vm_mode=vm_mode, block_size=block_size)
        return fd

    fd = kernel.run_syscall(setup())
    return proc, fd
