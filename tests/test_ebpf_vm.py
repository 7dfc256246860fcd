"""VM semantics tests, run in both tiers: interp and block."""

import dataclasses
import time
from types import SimpleNamespace

import pytest

from repro.core.hooks import storage_helpers
from repro.errors import BpfError, VerifierError, VmFault
from repro.ebpf import (
    CtxField,
    CtxLayout,
    FieldKind,
    Program,
    Vm,
    assemble,
    verify,
)
from repro.ebpf.helpers import HelperRegistry, HelperSpec
from repro.ebpf.isa import MAX_INSNS

HELPERS = storage_helpers()
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


def run(source, a=0, b=0, data=None, buf=None, mode="interp"):
    prog = Program(assemble(source, NAMES), LAYOUT, name="t")
    verify(prog, HELPERS)
    vm = Vm(prog, HELPERS, mode=mode)
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
def test_helper_result_lands_in_r0(mode):
    # r1 is clobbered by the call: the program saves it first.
    src = """
        mov   r6, r1
        ldxdw r1, [r6+0]
        call  compact_drop
        stxdw [r6+16], r0
        mov   r0, 0
        exit
    """
    prog = Program(assemble(src, NAMES), LAYOUT, name="t")
    verify(prog, HELPERS)
    vm = Vm(prog, HELPERS, mode=mode)
    vm.compact_sink = SimpleNamespace(drop=lambda key: key * 2)
    ctx = bytearray(40)
    ctx[0:8] = (21).to_bytes(8, "little")
    result = vm.run(ctx, {"data": bytearray(64), "buf": bytearray(32)})
    assert int.from_bytes(ctx[16:24], "little") == 42
    assert result.helper_calls == 1


def test_unverified_program_refused():
    prog = Program(assemble("mov r0, 0\nexit"), LAYOUT)
    with pytest.raises(VmFault, match="not accepted"):
        Vm(prog, HELPERS)


# The four checks below are forged-proof or run-time-argument checks: they
# must hold in the tier every install runs (``block``, the
# `core/install.py` default), not only in the constructor's default.  They
# loop over MODES rather than parametrise so that their ids stay stable.

REGIONS = {"data": 64, "buf": 32}


def _forged(source, *bogus_tail):
    """A never-verified program, optionally ending in unknown opcodes."""
    insns = assemble(source, NAMES)
    for opcode in bogus_tail:
        insns.append(dataclasses.replace(insns[-1], opcode=opcode))
    prog = Program(insns, LAYOUT)
    prog.verified = True  # forged: the verifier accepts none of these
    return prog


def _fault_of(prog, mode, regions=REGIONS, **vm_kwargs):
    vm = Vm(prog, HELPERS, mode=mode, **vm_kwargs)
    with pytest.raises(VmFault) as excinfo:
        vm.run(bytearray(40), {name: bytearray(size)
                               for name, size in regions.items()})
    return excinfo.value.reason, excinfo.value.pc


def test_runtime_bounds_check_is_defence_in_depth():
    # Bypass the verifier deliberately; the VM must still fault on OOB.
    prog = _forged("ldxdw r2, [r1+24]\nldxb r3, [r2+64]\nmov r0, 0\nexit")
    for mode in MODES:
        assert "out of bounds" in _fault_of(prog, mode)[0], mode


def test_runtime_instruction_budget():
    prog = _forged("loop:\nja loop")
    for mode in MODES:
        assert _fault_of(prog, mode, max_instructions=1000) == \
            ("instruction budget exhausted", 0), mode


def test_missing_region_faults():
    prog = Program(assemble("ldxdw r2, [r1+24]\nmov r0, 0\nexit"), LAYOUT)
    verify(prog, HELPERS)
    for mode in MODES:
        assert _fault_of(prog, mode, {"buf": 32}) == \
            ("missing region 'data'", -1), mode


def test_wrong_region_size_faults():
    prog = Program(assemble("mov r0, 0\nexit"), LAYOUT)
    verify(prog, HELPERS)
    for mode in MODES:
        assert _fault_of(prog, mode, {"data": 63, "buf": 32}) == \
            ("region 'data' is 63B, layout declares 64B", -1), mode


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
    vm = Vm(prog, HELPERS, mode=mode)
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
    vm = Vm(unreached, HELPERS, mode=mode)
    result = vm.run(bytearray(40), {"data": bytearray(64),
                                    "buf": bytearray(32)})
    assert result.return_value == 0


# Every run-time check the block tier's code generator emits, reached with
# a forged ``verified`` flag (the verifier rejects each of these programs).
# ``pc`` is -1 where the check lives in `Vm.mem_read` / `mem_write` /
# `_RunState.result`, which do not know the instruction.
FORGED_FAULTS = {
    "store_imm_to_read_only_region": (
        "ldxdw r2, [r1+24]\nstb [r2+0], 1\nmov r0, 0\nexit",
        "region 'data' is not writable", -1),
    "store_reg_to_read_only_region": (
        "ldxdw r2, [r1+24]\nmov r3, 7\nstxdw [r2+8], r3\nmov r0, 0\nexit",
        "region 'data' is not writable", -1),
    "store_to_read_only_ctx_field": (
        "mov r2, 1\nstxdw [r1+0], r2\nmov r0, 0\nexit",
        "ctx field 'a' is not writable", 1),
    "store_imm_to_read_only_ctx_field": (
        "stdw [r1+8], 1\nmov r0, 0\nexit",
        "ctx field 'b' is not writable", 0),
    # ``buf`` is writable as a region, never as a context field.
    "store_over_ctx_pointer_field": (
        "mov r2, 1\nstxdw [r1+32], r2\nmov r0, 0\nexit",
        "ctx field 'buf' is not writable", 1),
    "store_pointer_to_ctx_field": (
        "stxdw [r1+16], r1\nmov r0, 0\nexit",
        "ctx store value is a pointer, expected scalar", 0),
    "ctx_load_wrong_size": (
        "ldxw r2, [r1+0]\nmov r0, 0\nexit",
        "ctx load at (0, 4) hits no field", 0),
    "ctx_load_unaligned": (
        "ldxdw r2, [r1+4]\nmov r0, 0\nexit",
        "ctx load at (4, 8) hits no field", 0),
    "ctx_load_through_moved_pointer": (
        "mov r6, r1\nadd r6, 12\nldxdw r2, [r6+0]\nmov r0, 0\nexit",
        "ctx load at (12, 8) hits no field", 2),
    "ctx_load_past_the_struct": (
        "ldxdw r2, [r1+40]\nmov r0, 0\nexit",
        "ctx load at (40, 8) hits no field", 0),
    "ctx_store_wrong_size": (
        "mov r2, 1\nstxw [r1+16], r2\nmov r0, 0\nexit",
        "ctx store at (16, 4) hits no field", 1),
    "ctx_store_imm_negative_offset": (
        "stb [r1-1], 1\nmov r0, 0\nexit",
        "ctx store at (-1, 1) hits no field", 0),
    "load_through_scalar": (
        "mov r2, 5\nldxb r3, [r2+0]\nmov r0, 0\nexit",
        "load through non-pointer 5", 1),
    "store_through_scalar": (
        "mov r2, 5\nmov r3, 1\nstxb [r2+0], r3\nmov r0, 0\nexit",
        "store through non-pointer 5", 2),
    "store_imm_through_scalar": (
        "mov r2, 5\nstw [r2+0], 1\nmov r0, 0\nexit",
        "store through non-pointer 5", 1),
    "load_out_of_bounds_via_pointer_plus_reg": (
        "ldxdw r2, [r1+24]\nmov r3, 60\nadd r2, r3\nldxdw r4, [r2+0]\n"
        "mov r0, 0\nexit",
        "read [60, 68) out of bounds of 'data' (64B)", -1),
    "load_out_of_bounds_via_reg_plus_pointer": (
        "ldxdw r2, [r1+24]\nmov r3, 64\nadd r3, r2\nldxb r4, [r3+0]\n"
        "mov r0, 0\nexit",
        "read [64, 65) out of bounds of 'data' (64B)", -1),
    "load_out_of_bounds_via_pointer_plus_negative_imm": (
        "ldxdw r2, [r1+24]\nadd r2, -1\nldxb r3, [r2+0]\nmov r0, 0\nexit",
        "read [-1, 0) out of bounds of 'data' (64B)", -1),
    "load_out_of_bounds_via_pointer_minus_reg": (
        "ldxdw r2, [r1+24]\nmov r3, 8\nsub r2, r3\nldxdw r4, [r2+0]\n"
        "mov r0, 0\nexit",
        "read [-8, 0) out of bounds of 'data' (64B)", -1),
    "store_out_of_bounds_via_pointer_plus_reg": (
        "ldxdw r2, [r1+32]\nmov r3, 30\nadd r2, r3\nstxw [r2+0], r3\n"
        "mov r0, 0\nexit",
        "write [30, 34) out of bounds of 'buf' (32B)", -1),
    "stack_load_out_of_bounds": (
        "ldxdw r2, [r10+0]\nmov r0, 0\nexit",
        "read [512, 520) out of bounds of 'stack' (512B)", -1),
    "pointer_plus_pointer": (
        "mov r2, r1\nadd r2, r10\nmov r0, 0\nexit",
        "pointer + pointer", 1),
    "scalar_minus_pointer": (
        "mov r2, 8\nsub r2, r1\nmov r0, 0\nexit",
        "ALU op 'sub' on pointer", 1),
    "alu32_on_pointer": (
        "mov r2, r1\nadd32 r2, 1\nmov r0, 0\nexit",
        "32-bit ALU on pointer", 1),
    "ordered_compare_on_pointer": (
        "jgt r1, 4, out\nout:\nmov r0, 0\nexit",
        "ordered comparison 'jgt' on pointer", 0),
    "spill_pointer_outside_the_stack": (
        "ldxdw r2, [r1+32]\nstxdw [r2+0], r1\nmov r0, 0\nexit",
        "pointer may only be spilled to aligned stack slot", 1),
    "write_to_frame_pointer": (
        "mov r10, 0\nmov r0, 0\nexit",
        "write to frame pointer r10", 0),
    "helper_scalar_argument_given_pointer": (
        "call compact_drop\nmov r0, 0\nexit",
        "helper arg 1 is a pointer, expected scalar", 0),
    "pointer_returned_in_r0": (
        "mov r0, r1\nexit",
        "program returned a pointer in r0", -1),
}


@pytest.mark.parametrize("case", sorted(FORGED_FAULTS))
def test_forged_program_faults_identically_in_both_tiers(case):
    source, reason, pc = FORGED_FAULTS[case]
    prog = _forged(source)
    assert _fault_of(prog, "interp") == (reason, pc)
    assert _fault_of(prog, "block") == (reason, pc)


@pytest.mark.parametrize("conditional", [False, True])
def test_jump_out_of_program_checks_budget_first(conditional):
    # The assembler only takes labels; aim the jump by hand.  The fault
    # order is the interpreter's loop top: budget, then the pc bounds.
    source = "jeq r0, 0, out\nout:" if conditional else "ja out\nout:"
    prog = _forged(source + "\nmov r0, 0\nexit")
    prog.instructions[0] = dataclasses.replace(prog.instructions[0],
                                               offset=5)
    for budget, reason in ((1000, "pc 6 out of program"),
                           (1, "instruction budget exhausted")):
        for mode in MODES:
            assert _fault_of(prog, mode, max_instructions=budget) == \
                (reason, 6), (mode, budget)


@pytest.mark.parametrize("mode", MODES)
def test_unknown_helper_faults_only_when_reached(mode):
    # Not a VmFault: the registry's own error, from the call site.
    reached = Vm(_forged("call 99\nmov r0, 0\nexit"),
                 HELPERS, mode=mode)
    with pytest.raises(BpfError, match="unknown helper id 99") as excinfo:
        reached.run(bytearray(40), {"data": bytearray(64),
                                    "buf": bytearray(32)})
    assert not isinstance(excinfo.value, VmFault)
    unreached = Vm(_forged("mov r0, 3\nexit\ncall 99\nexit"),
                   HELPERS, mode=mode)
    result = unreached.run(bytearray(40), {"data": bytearray(64),
                                           "buf": bytearray(32)})
    assert (result.return_value, result.helper_calls) == (3, 0)


@pytest.mark.parametrize("helper_id", [1, 7, 16, 17])
def test_a_deleted_helper_id_is_unknown_to_the_verifier_and_both_tiers(
        helper_id):
    # trace (1), ktime (7), get_chain_budget (16) and trace_offset (17)
    # are gone: a call to one is refused like any id never registered.
    source = f"mov r1, 5\ncall {helper_id}\nmov r0, 0\nexit"
    with pytest.raises(VerifierError) as refused:
        verify(Program(assemble(source), LAYOUT), HELPERS)
    assert (refused.value.reason, refused.value.pc) == (
        f"call to unknown helper id {helper_id}", 1)
    faults = []
    for mode in MODES:
        vm = Vm(_forged(source), HELPERS, mode=mode)
        with pytest.raises(BpfError) as excinfo:
            vm.run(bytearray(40), {"data": bytearray(64),
                                   "buf": bytearray(32)})
        faults.append((type(excinfo.value), str(excinfo.value)))
    assert faults == [(BpfError, f"unknown helper id {helper_id}")] * 2


def test_block_code_is_shared_by_spec_and_bound_per_registry():
    # One Program, three installs.  The generated code is specialised by
    # the HelperSpec of each call site, so it is shared only between
    # registries whose specs are equal; the implementation always comes
    # from the running Vm's own registry.
    def registry(nargs, answer):
        helpers = HelperRegistry()
        helpers.register(HelperSpec(40, "probe", nargs),
                         lambda vm, *values: answer + sum(values))
        return helpers

    prog = Program(assemble("mov r1, 1\ncall 40\nexit"), LAYOUT)
    prog.verified = True  # one proof object, reused as an install would
    vms = [Vm(prog, helpers, mode="block")
           for helpers in (registry(1, 10), registry(1, 20),
                           registry(2, 30))]
    returned = [vm.run(bytearray(40), {"data": bytearray(64),
                                       "buf": bytearray(32)}).return_value
                for vm in vms]
    assert returned == [11, 21, 31]
    codes = [vm._compiled.__code__ for vm in vms]
    assert codes[0] is codes[1] and codes[0] is not codes[2]


def _late_loop(branches, iterations):
    """``branches`` no-op conditional jumps (one basic block each), then a
    two-instruction counted loop."""
    lines = []
    for index in range(branches):
        lines += [f"jeq r0, 1, next{index}", f"next{index}:"]
    lines += ["loop:", "add r2, 1", f"jlt r2, {iterations}, loop",
              "mov r0, 0", "exit"]
    return _forged("\n".join(lines))


def test_block_dispatch_has_no_late_loop_cliff():
    # Dispatch between blocks must not scale with the number of blocks in
    # front of a loop: a linear chain of block tests retires an instruction
    # 34x slower with 500 blocks ahead; the tree stays within ~2x.
    def ns_per_instruction(branches):
        vm = Vm(_late_loop(branches, 3000), HELPERS,
                mode="block")
        best = float("inf")
        for _ in range(7):
            started = time.perf_counter_ns()
            result = vm.run(bytearray(40), {"data": bytearray(64),
                                            "buf": bytearray(32)})
            elapsed = time.perf_counter_ns() - started
            best = min(best, elapsed / result.instructions)
        assert result.instructions == branches + 2 * 3000 + 2
        return best

    assert ns_per_instruction(2000) < 4 * ns_per_instruction(0)


def test_block_tier_compiles_the_largest_program():
    # One block per instruction at MAX_INSNS is the deepest dispatch tree:
    # it must stay inside CPython's indentation and nesting limits.
    prog = _late_loop(MAX_INSNS - 4, 10)
    assert len(prog) == MAX_INSNS
    results = [
        Vm(prog, HELPERS, mode=mode).run(
            bytearray(40), {"data": bytearray(64), "buf": bytearray(32)})
        for mode in MODES
    ]
    assert results[0] == results[1]
    assert results[0].instructions == MAX_INSNS - 4 + 2 * 10 + 2
