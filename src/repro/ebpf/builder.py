"""A small Python DSL for emitting programs with symbolic labels.

The textual assembler is fine for static programs; the builder is for
programs generated from parameters (context field offsets, fanout bounds,
helper ids) — e.g. the prebuilt B-tree and SSTable traversal functions in
:mod:`repro.core.library`.

Registers are plain integers 0–10.  Example::

    b = ProgramBuilder(layout, helpers.names(), name="double")
    b.ldx("w", 0, 1, layout.by_name["value"].offset)  # r0 = ctx.value
    b.alu("add", 0, src=0)                        # r0 *= 2
    b.exit()
    program = b.build()
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.errors import AssemblerError
from repro.ebpf.isa import Instruction
from repro.ebpf.program import CtxLayout, Program

__all__ = ["Label", "ProgramBuilder"]


class Label:
    """A forward-referenceable jump target."""

    def __init__(self, name: str):
        self.name = name
        self.pc: Optional[int] = None

    def __repr__(self) -> str:
        where = self.pc if self.pc is not None else "?"
        return f"Label({self.name}@{where})"


class _Fixup:
    """A placeholder instruction whose branch offset awaits label placement."""

    def __init__(self, opcode: str, dst: int, src: int, imm: int,
                 src_is_reg: bool, label: Label):
        self.opcode = opcode
        self.dst = dst
        self.src = src
        self.imm = imm
        self.src_is_reg = src_is_reg
        self.label = label


class ProgramBuilder:
    """Accumulates instructions and resolves labels at :meth:`build` time."""

    def __init__(self, ctx_layout: CtxLayout,
                 helper_names: Optional[Dict[str, int]] = None,
                 name: str = "prog"):
        self.ctx_layout = ctx_layout
        self.helper_names = helper_names or {}
        self.name = name
        self._items: List[Union[Instruction, _Fixup]] = []
        self._label_count = 0

    # -- labels -------------------------------------------------------------

    def label(self, name: str = "") -> Label:
        """Create a label; call :meth:`place` to pin it."""
        self._label_count += 1
        return Label(name or f"L{self._label_count}")

    def place(self, label: Label) -> Label:
        """Pin ``label`` at the current position."""
        if label.pc is not None:
            raise AssemblerError(f"label {label.name!r} placed twice")
        label.pc = len(self._items)
        return label

    # -- instruction emitters -------------------------------------------------

    def emit(self, instruction: Instruction) -> "ProgramBuilder":
        self._items.append(instruction)
        return self

    def mov(self, dst: int, value: int) -> "ProgramBuilder":
        """dst = immediate (use lddw automatically for wide values)."""
        if -(2**31) <= value < 2**31:
            return self.emit(Instruction("mov", dst=dst, imm=value))
        return self.emit(Instruction("lddw", dst=dst, imm=value))

    def mov_reg(self, dst: int, src: int) -> "ProgramBuilder":
        return self.emit(Instruction("mov", dst=dst, src=src, src_is_reg=True))

    def alu(self, op: str, dst: int, imm: Optional[int] = None,
            src: Optional[int] = None, width: int = 64) -> "ProgramBuilder":
        """ALU op with either an immediate or a source register."""
        opcode = op + ("32" if width == 32 else "")
        if (imm is None) == (src is None):
            raise AssemblerError("alu() needs exactly one of imm/src")
        if src is not None:
            return self.emit(
                Instruction(opcode, dst=dst, src=src, src_is_reg=True))
        return self.emit(Instruction(opcode, dst=dst, imm=imm))

    def ldx(self, size: str, dst: int, src: int, offset: int = 0
            ) -> "ProgramBuilder":
        """dst = *(size *)(src + offset); size in {"b","h","w","dw"}."""
        return self.emit(
            Instruction(f"ldx{size}", dst=dst, src=src, offset=offset))

    def stx(self, size: str, dst: int, offset: int, src: int
            ) -> "ProgramBuilder":
        """*(size *)(dst + offset) = src."""
        return self.emit(
            Instruction(f"stx{size}", dst=dst, src=src, offset=offset))

    def jump(self, label: Label) -> "ProgramBuilder":
        self._items.append(_Fixup("ja", 0, 0, 0, False, label))
        return self

    def branch(self, op: str, dst: int, label: Label,
               imm: Optional[int] = None, src: Optional[int] = None
               ) -> "ProgramBuilder":
        """Conditional branch to ``label`` comparing dst against imm or src."""
        if (imm is None) == (src is None):
            raise AssemblerError("branch() needs exactly one of imm/src")
        if src is not None:
            self._items.append(_Fixup(op, dst, src, 0, True, label))
        else:
            self._items.append(_Fixup(op, dst, 0, imm, False, label))
        return self

    def call(self, helper: Union[str, int]) -> "ProgramBuilder":
        if isinstance(helper, str):
            if helper not in self.helper_names:
                raise AssemblerError(f"unknown helper {helper!r}")
            helper = self.helper_names[helper]
        return self.emit(Instruction("call", imm=helper))

    def exit(self) -> "ProgramBuilder":
        return self.emit(Instruction("exit"))

    # -- finalisation ----------------------------------------------------------

    def build(self) -> Program:
        """Resolve labels and return the :class:`Program`."""
        instructions: List[Instruction] = []
        for pc, item in enumerate(self._items):
            if isinstance(item, Instruction):
                instructions.append(item)
                continue
            if item.label.pc is None:
                raise AssemblerError(
                    f"label {item.label.name!r} was never placed")
            offset = item.label.pc - pc - 1
            instructions.append(
                Instruction(item.opcode, dst=item.dst, src=item.src,
                            offset=offset, imm=item.imm,
                            src_is_reg=item.src_is_reg))
        return Program(instructions, self.ctx_layout, name=self.name)
