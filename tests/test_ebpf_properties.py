"""Property-based tests of the eBPF toolchain.

Three properties:

1. **Differential execution** — the interpreter, per-instruction JIT,
   and fused-block compiler agree exactly (full ExecutionResult) on
   random straight-line ALU programs, and all match an independent
   Python reference evaluator.
2. **Verifier soundness (safety)** — any randomly generated structured
   program the verifier *accepts* executes on random inputs without a
   single VM fault (the VM's runtime checks never fire).
3. **Encode/assemble/disassemble closure** — random accepted programs
   survive wire encoding and disassembly unchanged.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hooks import storage_ctx_layout, storage_helpers
from repro.ebpf import Instruction, Program, Vm, assemble, verify
from repro.ebpf.disasm import disassemble
from repro.ebpf.isa import decode, encode
from repro.ebpf.vm import VmEnvironment
from repro.errors import VerifierError, VmFault

HELPERS = storage_helpers()
LAYOUT = storage_ctx_layout(256, 64)

U64 = 0xFFFFFFFFFFFFFFFF
U32 = 0xFFFFFFFF


def _s64(value):
    return value - 2**64 if value >= 2**63 else value


def _s32(value):
    return value - 2**32 if value >= 2**31 else value


# ---------------------------------------------------------------------------
# 1. Differential ALU execution
# ---------------------------------------------------------------------------

_ALU = ["add", "sub", "mul", "div", "mod", "or", "and", "xor", "lsh",
        "rsh", "arsh", "mov"]


def _reference_alu(op, a, b, is32):
    if is32:
        a &= U32
        b &= U32
    top = U32 if is32 else U64
    bits = 31 if is32 else 63
    if op == "add":
        result = a + b
    elif op == "sub":
        result = a - b
    elif op == "mul":
        result = a * b
    elif op == "div":
        result = 0 if b == 0 else a // b
    elif op == "mod":
        result = a if b == 0 else a % b
    elif op == "or":
        result = a | b
    elif op == "and":
        result = a & b
    elif op == "xor":
        result = a ^ b
    elif op == "lsh":
        result = a << (b & bits)
    elif op == "rsh":
        result = a >> (b & bits)
    elif op == "arsh":
        signed = _s32(a) if is32 else _s64(a)
        result = signed >> (b & bits)
    elif op == "mov":
        result = b
    else:
        raise AssertionError(op)
    return result & top


@st.composite
def _alu_steps(draw):
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        op = draw(st.sampled_from(_ALU))
        is32 = draw(st.booleans())
        dst = draw(st.integers(2, 5))
        if draw(st.booleans()):
            src = draw(st.integers(2, 5))
            steps.append((op, is32, dst, ("reg", src)))
        else:
            imm = draw(st.integers(-(2**31), 2**31 - 1))
            steps.append((op, is32, dst, ("imm", imm)))
    return steps


@settings(max_examples=120, deadline=None)
@given(_alu_steps(),
       st.lists(st.integers(0, U64), min_size=4, max_size=4))
def test_interp_jit_and_reference_agree(steps, seeds):
    # Build the program: seed r2..r5 from ctx args, run steps, store r2.
    lines = [f"ldxdw r{reg}, [r1+{40 + 8 * (reg - 2)}]"
             for reg in range(2, 6)]
    for op, is32, dst, (kind, value) in steps:
        suffix = "32" if is32 else ""
        operand = f"r{value}" if kind == "reg" else str(value)
        lines.append(f"{op}{suffix} r{dst}, {operand}")
    lines.append("stxdw [r1+88], r2")
    lines.append("mov r0, 0")
    lines.append("exit")
    program = Program(assemble("\n".join(lines)), LAYOUT, name="fuzz")
    verify(program, HELPERS)

    # Reference evaluation.
    regs = {reg: seeds[reg - 2] for reg in range(2, 6)}
    for op, is32, dst, (kind, value) in steps:
        operand = regs[value] if kind == "reg" else value & U64
        regs[dst] = _reference_alu(op, regs[dst], operand, is32)

    results = {}
    outputs = {}
    for mode in ("interp", "block"):
        vm = Vm(program, VmEnvironment(HELPERS), mode=mode)
        ctx = bytearray(LAYOUT.size)
        for index, seed in enumerate(seeds):
            ctx[40 + 8 * index : 48 + 8 * index] = seed.to_bytes(8, "little")
        results[mode] = vm.run(ctx, {"data": bytearray(256),
                                     "scratch": bytearray(64)})
        outputs[mode] = int.from_bytes(ctx[88:96], "little")

    assert outputs["interp"] == outputs["block"] == regs[2]
    # The full ExecutionResult (return value, instruction count, trace,
    # helper calls) must be identical across both tiers.
    assert results["interp"] == results["block"]


# ---------------------------------------------------------------------------
# 2. Verifier soundness: accepted programs never fault
# ---------------------------------------------------------------------------


@st.composite
def _structured_program(draw):
    """Random programs mixing ALU, masked data loads, scratch stores, and
    forward branches — some verify, some do not."""
    lines = ["ldxdw r2, [r1+0]",        # data pointer (256 B)
             "ldxdw r3, [r1+32]",       # scratch pointer (64 B)
             "ldxdw r4, [r1+40]",       # arg0 (unknown scalar)
             "mov r5, 0"]
    label_count = 0
    open_labels = []
    for _ in range(draw(st.integers(1, 18))):
        choice = draw(st.integers(0, 6))
        if choice == 0:
            op = draw(st.sampled_from(_ALU))
            imm = draw(st.integers(-1000, 1000))
            lines.append(f"{op} r5, {imm}")
        elif choice == 1:
            # Masked, always-in-bounds data load.
            mask = draw(st.sampled_from([7, 15, 63, 127]))
            lines.append(f"and r4, {mask}")
            lines.append("mov r6, r2")
            lines.append("add r6, r4")
            lines.append("ldxb r7, [r6+0]")
            lines.append("add r5, r7")
        elif choice == 2:
            # Possibly-unsafe data load (offset may exceed the region).
            offset = draw(st.integers(0, 400))
            lines.append(f"ldxb r7, [r2+{offset}]")
        elif choice == 3:
            offset = draw(st.integers(0, 56))
            lines.append(f"stxdw [r3+{offset & ~7}], r5")
        elif choice == 4:
            # Possibly-unsafe scratch store.
            offset = draw(st.integers(0, 100))
            lines.append(f"stxb [r3+{offset}], r5")
        elif choice == 5:
            label_count += 1
            name = f"fwd{label_count}"
            imm = draw(st.integers(0, 100))
            lines.append(f"jgt r5, {imm}, {name}")
            open_labels.append(name)
        else:
            lines.append(f"stxdw [r10-{draw(st.sampled_from([8, 16, 24]))}]"
                         ", r5")
            lines.append(f"ldxdw r8, [r10-{draw(st.sampled_from([8, 16]))}]")
    lines.append("mov r0, 0")
    for name in open_labels:
        lines.append(f"{name}:")
    lines.append("mov r0, 0")
    lines.append("exit")
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(_structured_program(), st.integers(0, U64), st.binary(min_size=256,
                                                             max_size=256))
def test_verified_programs_never_fault(source, arg0, data):
    try:
        program = Program(assemble(source), LAYOUT, name="fuzz2")
    except Exception:
        return  # assembler rejected (e.g. stray label) — out of scope
    try:
        verify(program, HELPERS, state_budget=30_000)
    except VerifierError:
        return  # rejected: nothing to check
    ctx = bytearray(LAYOUT.size)
    ctx[40:48] = arg0.to_bytes(8, "little")
    for mode in ("interp", "block"):
        vm = Vm(program, VmEnvironment(HELPERS), mode=mode)
        try:
            vm.run(ctx, {"data": bytearray(data),
                         "scratch": bytearray(64)})
        except VmFault as fault:
            pytest.fail(f"verifier accepted but VM faulted ({mode}): "
                        f"{fault}\n{source}")


# ---------------------------------------------------------------------------
# 3. Encoding and disassembly closure
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(_structured_program())
def test_encode_decode_disassemble_closure(source):
    try:
        insns = assemble(source)
        Program(insns, LAYOUT)
    except Exception:
        return
    assert decode(encode(insns)) == insns
    assert assemble(disassemble(insns)) == insns
