"""Verifier tests: what must be accepted and what must be rejected."""

import pytest

from repro.core.hooks import storage_helpers
from repro.errors import VerifierError
from repro.ebpf import (
    CtxField,
    CtxLayout,
    FieldKind,
    Program,
    assemble,
    verify,
)

HELPERS = storage_helpers()
NAMES = HELPERS.names()

LAYOUT = CtxLayout(
    [
        CtxField("data", 0, 8, FieldKind.POINTER, region="data",
                 region_size=4096),
        CtxField("data_len", 8, 8),
        CtxField("file_offset", 16, 8),
        CtxField("out", 24, 8, writable=True),
        CtxField("scratch", 32, 8, FieldKind.POINTER, region="scratch",
                 region_size=256, writable=True),
    ]
)


def make(source, layout=LAYOUT):
    return Program(assemble(source, NAMES), layout, name="test")


def accept(source, layout=LAYOUT):
    return verify(make(source, layout), HELPERS)


def reject(source, match, layout=LAYOUT, budget=200_000):
    with pytest.raises(VerifierError, match=match):
        verify(make(source, layout), HELPERS, state_budget=budget)


# ---------------------------------------------------------------------------
# Acceptance
# ---------------------------------------------------------------------------


def test_trivial_program():
    accept("mov r0, 0\nexit")


def test_ctx_scalar_load_and_out_store():
    accept(
        """
        ldxdw r2, [r1+8]
        stxdw [r1+24], r2
        mov r0, 0
        exit
        """
    )


def test_data_pointer_constant_offset():
    accept(
        """
        ldxdw r2, [r1+0]
        ldxw  r3, [r2+4092]
        mov r0, 0
        exit
        """
    )


def test_bounded_variable_offset_after_check():
    accept(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        jgt   r3, 4088, out
        add   r2, r3
        ldxdw r4, [r2+0]
    out:
        mov r0, 0
        exit
        """
    )


def test_stack_roundtrip():
    accept(
        """
        mov   r2, 77
        stxdw [r10-8], r2
        ldxdw r3, [r10-8]
        mov   r0, 0
        exit
        """
    )


def test_pointer_spill_and_restore():
    accept(
        """
        ldxdw r2, [r1+0]
        stxdw [r10-8], r2
        ldxdw r3, [r10-8]
        ldxb  r4, [r3+0]
        mov   r0, 0
        exit
        """
    )


def test_bounded_loop_with_constant_bound():
    accept(
        """
        mov r2, 0
        mov r3, 0
    loop:
        jge r2, 16, done
        add r3, r2
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """
    )


def test_loop_bounded_by_clamped_ctx_value():
    accept(
        """
        ldxdw r3, [r1+8]
        jle   r3, 32, go
        mov   r3, 32
    go:
        mov r2, 0
    loop:
        jge r2, r3, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """
    )


def test_writable_scratch_region():
    accept(
        """
        ldxdw r2, [r1+32]
        mov   r3, 99
        stxdw [r2+0], r3
        mov r0, 0
        exit
        """
    )


def test_pointer_store_to_non_stack_region_rejected():
    reject(
        """
        ldxdw r2, [r1+32]
        stxdw [r2+0], r2
        mov r0, 0
        exit
        """,
        "pointer stored",
    )


# ---------------------------------------------------------------------------
# Rejection
# ---------------------------------------------------------------------------


def test_uninitialised_register_read_rejected():
    reject("mov r0, r5\nexit", "uninitialised r5")


def test_uninitialised_r0_at_exit_rejected():
    reject("exit", "uninitialised r0")


def test_pointer_returned_in_r0_rejected():
    reject("ldxdw r0, [r1+0]\nexit", "pointer in r0")


def test_oob_constant_offset_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        ldxw  r3, [r2+4093]
        mov r0, 0
        exit
        """,
        "out of bounds",
    )


def test_negative_offset_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        ldxb  r3, [r2-1]
        mov r0, 0
        exit
        """,
        "out of bounds",
    )


def test_unbounded_variable_offset_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
        """,
        "unbounded|out of tractable|out of bounds",
    )


def test_infinite_loop_rejected():
    reject("loop:\nja loop", "infinite loop")


def test_no_progress_loop_with_work_rejected():
    reject(
        """
        mov r2, 1
    loop:
        mov r3, r2
        ja  loop
        """,
        "infinite loop",
    )


def test_unclamped_loop_bound_rejected():
    reject(
        """
        ldxdw r3, [r1+8]
        mov r2, 0
    loop:
        jge r2, r3, done
        add r2, 1
        ja  loop
    done:
        mov r0, 0
        exit
        """,
        "budget exhausted|infinite loop",
        budget=3000,
    )


def test_write_to_readonly_data_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        stb   [r2+0], 1
        mov r0, 0
        exit
        """,
        "not writable|read-only",
    )


def test_write_to_readonly_ctx_field_rejected():
    reject(
        """
        mov r2, 1
        stxdw [r1+8], r2
        mov r0, 0
        exit
        """,
        "not writable",
    )


def test_ctx_load_between_fields_rejected():
    reject("ldxw r2, [r1+4]\nmov r0, 0\nexit", "matches no field")


def test_stack_out_of_bounds_rejected():
    reject("ldxdw r2, [r10-520]\nmov r0, 0\nexit", "out of bounds")


def test_stack_read_uninitialised_rejected():
    reject("ldxdw r2, [r10-8]\nmov r0, 0\nexit", "uninitialised stack")


def test_partial_read_of_spilled_pointer_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        stxdw [r10-8], r2
        ldxw  r3, [r10-8]
        mov r0, 0
        exit
        """,
        "partial read",
    )


def test_misaligned_pointer_spill_rejected():
    reject(
        """
        ldxdw r2, [r1+0]
        stxdw [r10-12], r2
        mov r0, 0
        exit
        """,
        "8-byte aligned",
    )


def test_unknown_helper_rejected():
    reject("call 999\nmov r0, 0\nexit", "unknown helper")


def test_registers_clobbered_after_call_rejected():
    reject(
        """
        mov r2, 5
        mov r1, r2
        call compact_drop
        mov r0, r2
        exit
        """,
        "uninitialised r2",
    )


def test_jump_out_of_range_rejected():
    from repro.ebpf.isa import Instruction

    prog = Program(
        [Instruction("ja", offset=5), Instruction("exit")], LAYOUT
    )
    with pytest.raises(VerifierError, match="jump target"):
        verify(prog, HELPERS)


def test_fallthrough_off_end_rejected():
    from repro.ebpf.isa import Instruction

    prog = Program(
        [Instruction("mov", dst=0, imm=0), Instruction("ja", offset=0)],
        LAYOUT,
    )
    # The final ja jumps to pc 2 == len -> falls off the end.
    with pytest.raises(VerifierError, match="jump target|falls off"):
        verify(prog, HELPERS)


def test_write_to_frame_pointer_rejected():
    reject("mov r10, 0\nexit", "frame pointer")


def test_comparison_refinement_enables_access():
    # Accessing data[i] for i in [0, 8) after a jlt check must verify.
    accept(
        """
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        and   r3, 7
        add   r2, r3
        ldxb  r4, [r2+0]
        mov r0, 0
        exit
        """
    )


def test_branch_with_no_feasible_outcome_is_impossible():
    # jlt r2, 0 can never be taken; verifier should follow only fall-through.
    accept(
        """
        mov r2, 1
        jlt r2, 0, bad
        mov r0, 0
        exit
    bad:
        ldxdw r4, [r10-400]
        mov r0, 0
        exit
        """
    )


def test_verified_flag_set():
    prog = make("mov r0, 0\nexit")
    assert not prog.verified
    verify(prog, HELPERS)
    assert prog.verified
