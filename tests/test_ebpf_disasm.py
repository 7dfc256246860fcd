"""Disassembler tests: output must re-assemble to identical instructions."""

from repro.core.hooks import storage_helpers
from repro.core.library import (
    index_traversal_program,
    linked_list_program,
    scan_aggregate_program,
)
from repro.ebpf import Instruction, assemble
from repro.ebpf.disasm import disassemble


def roundtrip(instructions, helpers=None):
    names = helpers.names() if helpers else {}
    inverse = {helper_id: name for name, helper_id in names.items()}
    text = disassemble(instructions, helper_names=inverse)
    return assemble(text, helpers=names)


def test_simple_roundtrip():
    insns = assemble(
        """
        mov   r1, 42
        add32 r1, -7
        lddw  r2, 0x1122334455667788
        ldxw  r3, [r1+16]
        stxdw [r10-8], r3
        stb   [r10-16], 1
        neg   r3
    loop:
        jne   r1, r2, loop
        exit
        """
    )
    assert roundtrip(insns) == insns


def test_helper_names_resolved():
    helpers = storage_helpers()
    insns = assemble("mov r1, 1\ncall compact_drop\nmov r0, 0\nexit",
                     helpers.names())
    text = disassemble(insns, helper_names={
        v: k for k, v in helpers.names().items()})
    assert "call compact_drop" in text
    assert roundtrip(insns, helpers) == insns


def test_unknown_helper_rendered_numerically():
    insns = [Instruction("call", imm=777), Instruction("exit")]
    text = disassemble(insns)
    assert "call 777" in text


def test_library_programs_roundtrip():
    helpers = storage_helpers()
    for maker in (linked_list_program,
                  lambda: index_traversal_program(fanout=16),
                  lambda: scan_aggregate_program(fanout=16)):
        program = maker()
        assert roundtrip(program.instructions, helpers) == \
            program.instructions


def test_disassembly_is_readable():
    program = linked_list_program()
    text = disassemble(program.instructions)
    assert "L0:" in text or "L1:" in text
    assert "ldxdw" in text
    assert text.endswith("exit\n")
