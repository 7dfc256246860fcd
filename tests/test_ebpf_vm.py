"""VM semantics tests, run in both tiers: interp and block."""

import dataclasses

import pytest

from repro.errors import VmFault
from repro.ebpf import (
    ArrayMap,
    CtxField,
    CtxLayout,
    FieldKind,
    HashMap,
    Program,
    Vm,
    assemble,
    base_registry,
    verify,
)
from repro.ebpf.vm import VmEnvironment

HELPERS = base_registry()
NAMES = HELPERS.names()

LAYOUT = CtxLayout(
    [
        CtxField("a", 0, 8),
        CtxField("b", 8, 8),
        CtxField("out", 16, 8, writable=True),
        CtxField("data", 24, 8, FieldKind.POINTER, region="data",
                 region_size=64),
        CtxField("buf", 32, 8, FieldKind.POINTER, region="buf",
                 region_size=32, writable=True),
    ]
)


def run(source, a=0, b=0, data=None, buf=None, maps=None, mode="interp",
        clock=None):
    prog = Program(assemble(source, NAMES), LAYOUT, name="t")
    verify(prog, HELPERS, maps=maps)
    env = VmEnvironment(HELPERS, maps=maps, clock=clock)
    vm = Vm(prog, env, mode=mode)
    ctx = bytearray(40)
    ctx[0:8] = (a & (2**64 - 1)).to_bytes(8, "little")
    ctx[8:16] = (b & (2**64 - 1)).to_bytes(8, "little")
    regions = {
        "data": data if data is not None else bytearray(64),
        "buf": buf if buf is not None else bytearray(32),
    }
    result = vm.run(ctx, regions)
    out = int.from_bytes(ctx[16:24], "little")
    return result, out, vm


MODES = ["interp", "block"]


@pytest.mark.parametrize("mode", MODES)
def test_arithmetic(mode):
    src = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mov   r4, r2
        add   r4, r3
        mul   r4, 3
        sub   r4, 1
        stxdw [r1+16], r4
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, a=10, b=5, mode=mode)
    assert out == (10 + 5) * 3 - 1


@pytest.mark.parametrize("mode", MODES)
def test_wraparound_64bit(mode):
    src = """
        lddw  r2, 0xffffffffffffffff
        add   r2, 1
        stxdw [r1+16], r2
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, mode=mode)
    assert out == 0


@pytest.mark.parametrize("mode", MODES)
def test_alu32_zero_extends(mode):
    src = """
        lddw  r2, 0xffffffff00000001
        add32 r2, 1
        stxdw [r1+16], r2
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, mode=mode)
    assert out == 2


@pytest.mark.parametrize("mode", MODES)
def test_division_by_zero_yields_zero(mode):
    src = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        div   r2, r3
        stxdw [r1+16], r2
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, a=100, b=0, mode=mode)
    assert out == 0
    _, out, _ = run(src, a=100, b=7, mode=mode)
    assert out == 14


@pytest.mark.parametrize("mode", MODES)
def test_mod_by_zero_keeps_dividend(mode):
    src = """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        mod   r2, r3
        stxdw [r1+16], r2
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, a=100, b=0, mode=mode)
    assert out == 100


@pytest.mark.parametrize("mode", MODES)
def test_signed_comparison(mode):
    # -1 (unsigned max) is signed-less-than 1.
    src = """
        lddw  r2, 0xffffffffffffffff
        mov   r3, 1
        jslt  r2, r3, neg
        stxdw [r1+16], r3
        mov   r0, 0
        exit
    neg:
        mov   r4, 42
        stxdw [r1+16], r4
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, mode=mode)
    assert out == 42


@pytest.mark.parametrize("mode", MODES)
def test_arsh_sign_extends(mode):
    src = """
        lddw  r2, 0x8000000000000000
        arsh  r2, 63
        stxdw [r1+16], r2
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, mode=mode)
    assert out == 2**64 - 1


@pytest.mark.parametrize("mode", MODES)
def test_byte_loads_little_endian(mode):
    data = bytearray(64)
    data[0:4] = (0x11223344).to_bytes(4, "little")
    src = """
        ldxdw r2, [r1+24]
        ldxw  r3, [r2+0]
        stxdw [r1+16], r3
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, data=data, mode=mode)
    assert out == 0x11223344


@pytest.mark.parametrize("mode", MODES)
def test_store_to_writable_buffer(mode):
    buf = bytearray(32)
    src = """
        ldxdw r2, [r1+32]
        mov   r3, 0xAB
        stxb  [r2+5], r3
        mov   r0, 0
        exit
    """
    run(src, buf=buf, mode=mode)
    assert buf[5] == 0xAB


@pytest.mark.parametrize("mode", MODES)
def test_loop_sums_data(mode):
    data = bytearray(range(64))
    src = """
        ldxdw r2, [r1+24]
        mov   r4, 0
        mov   r5, 0
    loop:
        jge   r4, 64, done
        mov   r6, r2
        add   r6, r4
        ldxb  r7, [r6+0]
        add   r5, r7
        add   r4, 1
        ja    loop
    done:
        stxdw [r1+16], r5
        mov   r0, 0
        exit
    """
    result, out, _ = run(src, data=data, mode=mode)
    assert out == sum(range(64))
    assert result.instructions > 64 * 6


@pytest.mark.parametrize("mode", MODES)
def test_helper_trace(mode):
    src = """
        mov  r1, 123
        call trace
        mov  r0, 0
        exit
    """
    result, _, _ = run(src, mode=mode)
    assert result.trace_log == [123]
    assert result.helper_calls == 1


@pytest.mark.parametrize("mode", MODES)
def test_ktime_uses_env_clock(mode):
    src = """
        call  ktime
        stxdw [r1+16], r0
        mov   r0, 0
        exit
    """
    # r1 is clobbered by the call: program must save it first.
    src = """
        mov   r6, r1
        call  ktime
        stxdw [r6+16], r0
        mov   r0, 0
        exit
    """
    _, out, _ = run(src, mode=mode, clock=lambda: 987654)
    assert out == 987654


@pytest.mark.parametrize("mode", MODES)
def test_map_lookup_hit_and_miss(mode):
    m = HashMap(4, 8, 16, name="m")
    m.update((1).to_bytes(4, "little"), (555).to_bytes(8, "little"))
    src = """
        mov   r6, r1
        ldxdw r7, [r1+0]
        stxw  [r10-4], r7
        mov   r1, 1
        mov   r2, r10
        add   r2, -4
        call  map_lookup
        jeq   r0, 0, miss
        ldxdw r2, [r0+0]
        stxdw [r6+16], r2
        mov   r0, 0
        exit
    miss:
        mov   r2, 0
        stxdw [r6+16], r2
        mov   r0, 1
        exit
    """
    result, out, _ = run(src, a=1, maps={1: m}, mode=mode)
    assert (result.return_value, out) == (0, 555)
    result, out, _ = run(src, a=2, maps={1: m}, mode=mode)
    assert (result.return_value, out) == (1, 0)


@pytest.mark.parametrize("mode", MODES)
def test_map_update_from_program(mode):
    m = ArrayMap(value_size=8, max_entries=4, name="arr")
    src = """
        stw   [r10-4], 2
        mov   r2, 777
        stxdw [r10-16], r2
        mov   r1, 1
        mov   r2, r10
        add   r2, -4
        mov   r3, r10
        add   r3, -16
        call  map_update
        exit
    """
    result, _, _ = run(src, maps={1: m}, mode=mode)
    assert result.return_value == 0
    assert int.from_bytes(m.lookup_index(2), "little") == 777


@pytest.mark.parametrize("mode", MODES)
def test_memcpy_between_regions(mode):
    data = bytearray(64)
    data[0:8] = b"ABCDEFGH"
    buf = bytearray(32)
    src = """
        ldxdw r3, [r1+24]
        ldxdw r5, [r1+32]
        mov   r1, r5
        mov   r2, 8
        mov   r4, 8
        call  memcpy
        mov   r0, 0
        exit
    """
    run(src, data=data, buf=buf, mode=mode)
    assert bytes(buf[0:8]) == b"ABCDEFGH"


def test_unverified_program_refused():
    prog = Program(assemble("mov r0, 0\nexit"), LAYOUT)
    with pytest.raises(VmFault, match="not accepted"):
        Vm(prog, VmEnvironment(HELPERS))


def test_runtime_bounds_check_is_defence_in_depth():
    # Bypass the verifier deliberately; the VM must still fault on OOB.
    prog = Program(
        assemble("ldxdw r2, [r1+24]\nldxb r3, [r2+64]\nmov r0, 0\nexit"),
        LAYOUT,
    )
    prog.verified = True  # forged
    vm = Vm(prog, VmEnvironment(HELPERS))
    ctx = bytearray(40)
    with pytest.raises(VmFault, match="out of bounds"):
        vm.run(ctx, {"data": bytearray(64), "buf": bytearray(32)})


def test_runtime_instruction_budget():
    prog = Program(assemble("loop:\nja loop"), LAYOUT)
    prog.verified = True  # forged
    vm = Vm(prog, VmEnvironment(HELPERS), max_instructions=1000)
    with pytest.raises(VmFault, match="budget"):
        vm.run(bytearray(40), {"data": bytearray(64), "buf": bytearray(32)})


def test_missing_region_faults():
    prog = Program(assemble("ldxdw r2, [r1+24]\nmov r0, 0\nexit"), LAYOUT)
    verify(prog, HELPERS)
    vm = Vm(prog, VmEnvironment(HELPERS))
    with pytest.raises(VmFault, match="missing region"):
        vm.run(bytearray(40), {"buf": bytearray(32)})


def test_wrong_region_size_faults():
    prog = Program(assemble("mov r0, 0\nexit"), LAYOUT)
    verify(prog, HELPERS)
    vm = Vm(prog, VmEnvironment(HELPERS))
    with pytest.raises(VmFault, match="layout declares"):
        vm.run(bytearray(40), {"data": bytearray(63), "buf": bytearray(32)})


@pytest.mark.parametrize("mode", MODES)
def test_interp_and_jit_agree_on_instruction_counts(mode):
    src = """
        mov r2, 0
        mov r3, 0
    loop:
        jge r2, 10, done
        add r3, r2
        add r2, 1
        ja  loop
    done:
        stxdw [r1+16], r3
        mov r0, 0
        exit
    """
    result, out, _ = run(src, mode=mode)
    assert out == 45
    assert result.instructions == 2 + 10 * 4 + 1 + 3


@pytest.mark.parametrize("mode", MODES)
def test_partial_read_of_spilled_pointer_faults(mode):
    # Spill the data pointer to the stack, then read a single byte of the
    # slot.  A simulated pointer has no raw bytes; the VM used to hand back
    # 0xff poison for partial reads — every tier must fault instead.  The
    # verifier already rejects such programs, so forge verification to hit
    # the runtime defence in depth.
    prog = Program(
        assemble("""
            ldxdw r2, [r1+24]
            stxdw [r10-8], r2
            ldxb  r3, [r10-8]
            mov   r0, 0
            exit
        """),
        LAYOUT,
    )
    prog.verified = True  # forged
    vm = Vm(prog, VmEnvironment(HELPERS), mode=mode)
    with pytest.raises(VmFault, match="partial read of spilled pointer"):
        vm.run(bytearray(40), {"data": bytearray(64), "buf": bytearray(32)})


@pytest.mark.parametrize("mode", MODES)
def test_full_read_of_spilled_pointer_restores_it(mode):
    # The aligned 8-byte read of the same slot must restore the pointer,
    # usable for a subsequent load.
    src = """
        ldxdw r2, [r1+24]
        stxdw [r10-8], r2
        ldxdw r4, [r10-8]
        ldxb  r5, [r4+3]
        stxdw [r1+16], r5
        mov   r0, 0
        exit
    """
    data = bytearray(64)
    data[3] = 99
    _, out, _ = run(src, data=data, mode=mode)
    assert out == 99


@pytest.mark.parametrize("mode", MODES)
def test_trace_log_is_per_run(mode):
    src = """
        mov  r1, 7
        call trace
        mov  r0, 0
        exit
    """
    prog = Program(assemble(src, NAMES), LAYOUT, name="t")
    verify(prog, HELPERS)
    vm = Vm(prog, VmEnvironment(HELPERS), mode=mode)
    first = vm.run(bytearray(40), {"data": bytearray(64),
                                   "buf": bytearray(32)})
    second = vm.run(bytearray(40), {"data": bytearray(64),
                                    "buf": bytearray(32)})
    # Each run gets a fresh log: no accumulation across invocations.
    assert first.trace_log == [7]
    assert second.trace_log == [7]
    assert first.trace_log is not second.trace_log


def _forged(source, *bogus_tail):
    """A never-verified program, optionally ending in unknown opcodes."""
    insns = assemble(source)
    for opcode in bogus_tail:
        insns.append(dataclasses.replace(insns[-1], opcode=opcode))
    prog = Program(insns, LAYOUT)
    prog.verified = True  # forged: the verifier accepts none of these
    return prog


def _fault_of(prog, mode, **vm_kwargs):
    vm = Vm(prog, VmEnvironment(HELPERS), mode=mode, **vm_kwargs)
    with pytest.raises(VmFault) as excinfo:
        vm.run(bytearray(40), {"data": bytearray(64), "buf": bytearray(32)})
    return excinfo.value.reason, excinfo.value.pc


def test_block_budget_fault_matches_interp_exactly():
    # The block tier hoists the budget check to one test per block; on
    # exhaustion it replays the block through the interpreter so the fault
    # carries the same pc, message, and executed count.  The replay only
    # touches instructions it reaches: an unknown opcode past the loop
    # changes nothing.
    for tail in ((), ("bogus", "exit")):
        prog = _forged("loop:\nadd r2, 1\nja loop", *tail)
        interp = _fault_of(prog, "interp", max_instructions=1001)
        assert interp == ("instruction budget exhausted", 1)
        assert _fault_of(prog, "block", max_instructions=1001) == interp


@pytest.mark.parametrize("mode", MODES)
def test_unknown_opcode_faults_only_when_reached(mode):
    reached = _forged("mov r0, 0", "bogus", "exit")
    assert _fault_of(reached, mode) == ("unknown opcode 'bogus'", 1)
    unreached = _forged("mov r0, 0\nexit", "bogus", "exit")
    vm = Vm(unreached, VmEnvironment(HELPERS), mode=mode)
    result = vm.run(bytearray(40), {"data": bytearray(64),
                                    "buf": bytearray(32)})
    assert result.return_value == 0
