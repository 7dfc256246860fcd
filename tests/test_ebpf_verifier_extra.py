"""Additional verifier coverage: jset, signed branches, pointer compares,
state pruning, and the builder DSL's error handling."""

import pytest

from repro.core.hooks import storage_helpers
from repro.errors import AssemblerError, VerifierError
from repro.ebpf import (
    CtxField,
    CtxLayout,
    FieldKind,
    Program,
    ProgramBuilder,
    assemble,
    verify,
)
from repro.ebpf.verifier import _ARITH, Scalar, dead_registers

HELPERS = storage_helpers()
LAYOUT = CtxLayout(
    [
        CtxField("data", 0, 8, FieldKind.POINTER, region="data",
                 region_size=128),
        CtxField("n", 8, 8),
        CtxField("out", 16, 8, writable=True),
    ]
)


def accept(source):
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    return verify(program, HELPERS)


def reject(source, match):
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    with pytest.raises(VerifierError, match=match):
        verify(program, HELPERS)


# ---------------------------------------------------------------------------
# Branch kinds
# ---------------------------------------------------------------------------


def test_jset_constant_folds_taken():
    # 0b1010 & 0b0010 != 0 -> always taken; the dead path may be unsafe.
    accept(
        """
        mov r2, 10
        jset r2, 2, good
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
    good:
        mov r0, 0
        exit
        """
    )


def test_jset_constant_folds_not_taken():
    accept(
        """
        mov r2, 8
        jset r2, 2, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """
    )


def test_jset_unknown_explores_both():
    reject(
        """
        ldxdw r2, [r1+8]
        jset r2, 1, bad
        mov r0, 0
        exit
    bad:
        ldxdw r3, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_signed_branch_refines_nonnegative_ranges():
    # n clamped to [0, 100]; jsgt then behaves like jgt.
    accept(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        jle   r3, 100, ok
        mov   r3, 100
    ok:
        jsgt  r3, 120, bad
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
    bad:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """
    )


def test_signed_branch_wide_range_keeps_both_edges():
    reject(
        """
        ldxdw r3, [r1+8]
        jsgt  r3, 0, pos
        mov r0, 0
        exit
    pos:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_pointer_equality_comparison_explores_both():
    reject(
        """
        ldxdw r2, [r1+0]
        mov   r3, r2
        jeq   r2, r3, same
        mov r0, 0
        exit
    same:
        ldxdw r5, [r10-8]
        mov r0, 0
        exit
        """,
        "uninitialised stack",
    )


def test_definite_pointer_never_null():
    # jeq ptr, 0 can never be taken for a live ctx-derived pointer.
    accept(
        """
        ldxdw r2, [r1+0]
        jeq   r2, 0, dead
        mov r0, 0
        exit
    dead:
        ldxdw r5, [r10-400]
        mov r0, 0
        exit
        """
    )


# ---------------------------------------------------------------------------
# Pruning behaviour
# ---------------------------------------------------------------------------


# (branch, one arm, the other arm, most states explored)
DIAMONDS = {
    # Both arms normalise their temps, so the rejoined states differ only
    # in the range the branch refined r2 to, and paths that agree on it
    # prune.  Without completed-state pruning this would be ~2^24 states.
    "same-temps": ("jgt r2, {}", "mov r4, 1", "mov r4, 1", 1999),
    # The arms leave different temps, which the join overwrites: r4 is
    # dead there, so the second arm's state prunes at the join itself.
    # Per diamond: the branch, one arm's two instructions, the other's
    # one and the join once (pruning on every register, the join was
    # stepped twice: 148 states).
    "dead-temps": ("jset r2, {}", "mov r4, 1", "mov r4, 2", 2 + 5 * 24 + 2),
}


def test_diamond_rejoin_prunes_to_linear_states():
    for name, (branch, arm, other, most) in DIAMONDS.items():
        source_lines = ["ldxdw r2, [r1+8]", "mov r3, 0"]
        for index in range(24):
            source_lines += [
                branch.format(index * 3) + f", t{index}",
                arm,
                f"ja j{index}",
                f"t{index}:",
                other,
                f"j{index}:",
                "mov r4, 0",
            ]
        source_lines += ["mov r0, 0", "exit"]
        program = Program(assemble("\n".join(source_lines)), LAYOUT)
        stats = verify(program, HELPERS, state_budget=20_000)
        assert stats.states_explored <= most, name


def test_dead_registers_of_a_program_with_a_call_a_loop_and_a_store():
    source = """
        mov   r6, r1
        mov   r7, 0
    loop:
        mov   r1, r7
        call  compact_drop
        add   r7, 1
        jlt   r7, 3, loop
        stxdw [r6+16], r7
        mov   r0, 0
        exit
    """
    program = Program(assemble(source, HELPERS.names()), LAYOUT)
    everything = set(range(10))         # r10 is never dead
    dead = [
        everything - {1},               # mov r6, r1
        everything - {6},               # mov r7, 0: r1 is rewritten
        everything - {6, 7},            # loop head: r6 lives to the store
        everything - {1, 6, 7},         # call: its argument
        everything - {6, 7},            # add r7, 1: the call wrote r0-r5
        everything - {6, 7},            # jlt
        everything - {6, 7},            # stxdw: base and stored value
        everything,                     # mov r0, 0
        everything - {0},               # exit reads r0
    ]
    assert [set(regs) for regs in
            dead_registers(program.instructions, HELPERS.specs)] == dead
    accept(source)


def test_a_register_read_only_at_exit_stays_live_across_a_loop():
    # r0 is set before the loop and read only by exit's check: dropping
    # that use would clear it at the loop head and reject the program.
    accept(
        """
        mov r0, 0
        mov r2, 0
    loop:
        add r2, 1
        jlt r2, 4, loop
        exit
        """
    )


def test_a_stored_register_stays_live_across_a_loop():
    # r3 crosses the loop head and is read only as a store's value:
    # forgetting that use would clear it there and reject the store.
    accept(
        """
        mov r3, 7
        mov r2, 0
    loop:
        add r2, 1
        jlt r2, 4, loop
        stxdw [r10-8], r3
        mov r0, 0
        exit
        """
    )


def test_loop_with_distinct_states_not_falsely_pruned():
    reject("loop:\nja loop", "infinite loop")


# ---------------------------------------------------------------------------
# Scalar transfer functions
# ---------------------------------------------------------------------------


def test_scalar_alu_add_overflow_widens():
    huge = Scalar(2**63, 2**64 - 1)
    result = _ARITH["add", False](huge, huge)
    assert (result.umin, result.umax) == (0, 2**64 - 1)


def test_scalar_alu_and_bounds():
    result = _ARITH["and", False](Scalar(0, 2**64 - 1), Scalar(255, 255))
    assert (result.umin, result.umax) == (0, 255)


def test_scalar_alu_mod_constant():
    result = _ARITH["mod", False](Scalar(0, 2**64 - 1), Scalar(16, 16))
    assert (result.umin, result.umax) == (0, 15)


def test_scalar_alu_div_constant():
    result = _ARITH["div", False](Scalar(100, 200), Scalar(10, 10))
    assert (result.umin, result.umax) == (10, 20)


def test_scalar_alu_lsh_within_range():
    result = _ARITH["lsh", False](Scalar(1, 4), Scalar(3, 3))
    assert (result.umin, result.umax) == (8, 32)


def test_scalar_alu_32bit_clamps():
    result = _ARITH["add", True](Scalar(2**32 - 1, 2**32 - 1), Scalar(10, 10))
    assert result.umax <= 2**32 - 1


# ---------------------------------------------------------------------------
# Builder DSL errors
# ---------------------------------------------------------------------------


def test_builder_unplaced_label_rejected():
    b = ProgramBuilder(LAYOUT)
    target = b.label("nowhere")
    b.jump(target)
    b.exit()
    with pytest.raises(AssemblerError, match="never placed"):
        b.build()


def test_builder_double_placed_label_rejected():
    b = ProgramBuilder(LAYOUT)
    label = b.label()
    b.place(label)
    with pytest.raises(AssemblerError, match="placed twice"):
        b.place(label)


def test_builder_alu_needs_exactly_one_source():
    b = ProgramBuilder(LAYOUT)
    with pytest.raises(AssemblerError):
        b.alu("add", 2)
    with pytest.raises(AssemblerError):
        b.alu("add", 2, imm=1, src=3)


def test_builder_unknown_helper_rejected():
    b = ProgramBuilder(LAYOUT)
    with pytest.raises(AssemblerError, match="unknown helper"):
        b.call("frobnicate")


def test_builder_wide_mov_uses_lddw():
    b = ProgramBuilder(LAYOUT)
    b.mov(2, 2**40)
    b.mov(0, 0)
    b.exit()
    program = b.build()
    assert program.instructions[0].opcode == "lddw"
