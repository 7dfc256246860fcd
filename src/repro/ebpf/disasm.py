"""Disassembler: instruction lists back to assembler-compatible text.

``disassemble`` produces text that re-assembles to the identical
instruction list (branch targets become generated labels), which the tests
verify as a round-trip property.  Useful for debugging generated programs:

    print(disassemble(index_traversal_program().instructions))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import AssemblerError
from repro.ebpf.isa import ALU_OPS, Instruction, JMP_OPS, MEM_SIZES

__all__ = ["disassemble"]


def _mem_operand(reg: int, offset: int) -> str:
    if offset == 0:
        return f"[r{reg}]"
    sign = "+" if offset >= 0 else "-"
    return f"[r{reg}{sign}{abs(offset)}]"


def _collect_labels(instructions: List[Instruction]) -> Dict[int, str]:
    targets = set()
    for pc, insn in enumerate(instructions):
        if insn.opcode == "ja" or insn.opcode in JMP_OPS:
            targets.add(pc + 1 + insn.offset)
    return {target: f"L{index}" for index, target in
            enumerate(sorted(targets))}


def disassemble(instructions: List[Instruction],
                helper_names: Optional[Dict[int, str]] = None,
                comments: Optional[Dict[int, str]] = None) -> str:
    """Render ``instructions`` as re-assemblable text.

    ``helper_names`` optionally maps helper ids to names (the inverse of
    ``HelperRegistry.names()``); unknown ids are emitted numerically.
    ``comments`` optionally maps a pc to a trailing ``;`` comment on its
    line.
    """
    helper_names = helper_names or {}
    comments = comments or {}
    labels = _collect_labels(instructions)
    lines: List[str] = []
    for pc, insn in enumerate(instructions):
        if pc in labels:
            lines.append(f"{labels[pc]}:")
        line = "    " + _render(insn, pc, labels, helper_names)
        if comments.get(pc):
            line = f"{line:<32}; {comments[pc]}"
        lines.append(line)
    # A trailing branch may target one past the last instruction.
    if len(instructions) in labels:
        raise AssemblerError("branch targets past program end")
    return "\n".join(lines) + "\n"


def _render(insn: Instruction, pc: int, labels: Dict[int, str],
            helper_names: Dict[int, str]) -> str:
    op = insn.opcode
    if op == "exit":
        return "exit"
    if op == "call":
        name = helper_names.get(insn.imm)
        return f"call {name}" if name else f"call {insn.imm}"
    if op == "ja":
        return f"ja {labels[pc + 1 + insn.offset]}"
    if op == "lddw":
        return f"lddw r{insn.dst}, {insn.imm:#x}"

    base = op[:-2] if op.endswith("32") else op
    if base in ALU_OPS:
        if base == "neg":
            return f"{op} r{insn.dst}"
        source = f"r{insn.src}" if insn.src_is_reg else str(insn.imm)
        return f"{op} r{insn.dst}, {source}"
    if op in JMP_OPS:
        source = f"r{insn.src}" if insn.src_is_reg else str(insn.imm)
        return f"{op} r{insn.dst}, {source}, {labels[pc + 1 + insn.offset]}"
    if op.startswith("ldx") and op[3:] in MEM_SIZES:
        return f"{op} r{insn.dst}, {_mem_operand(insn.src, insn.offset)}"
    if op.startswith("stx") and op[3:] in MEM_SIZES:
        return f"{op} {_mem_operand(insn.dst, insn.offset)}, r{insn.src}"
    if op.startswith("st") and op[2:] in MEM_SIZES:
        return f"{op} {_mem_operand(insn.dst, insn.offset)}, {insn.imm}"
    raise AssemblerError(f"cannot disassemble {op!r}")
