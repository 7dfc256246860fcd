"""Instruction set for the eBPF-subset virtual machine.

The ISA mirrors classic eBPF: eleven 64-bit registers (``r0``–``r10``, with
``r10`` the read-only frame pointer), fixed-size instructions carrying a
destination register, source register, signed 16-bit offset, and a 32-bit
(or, for ``lddw``, 64-bit) immediate.

Instructions are held symbolically as :class:`Instruction` records; an
encoder/decoder to the 8-byte on-the-wire eBPF format is provided for
fidelity (``lddw`` occupies two slots exactly as in the kernel).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List

from repro.errors import AssemblerError

__all__ = [
    "ALU_OPS",
    "JMP_OPS",
    "Instruction",
    "MEM_SIZES",
    "NUM_REGISTERS",
    "STACK_SIZE",
    "decode",
    "encode",
]

#: Register count; r10 is the frame pointer.
NUM_REGISTERS = 11
FP_REG = 10

#: Per-program stack size in bytes, as in Linux.
STACK_SIZE = 512

#: Maximum instruction count accepted by the loader (classic eBPF limit).
MAX_INSNS = 4096

# Arithmetic/logic operations (operate on 64-bit registers; the assembler's
# ``32`` suffix selects 32-bit semantics with zero-extension of the result).
ALU_OPS = (
    "add",
    "sub",
    "mul",
    "div",
    "mod",
    "or",
    "and",
    "xor",
    "lsh",
    "rsh",
    "arsh",
    "mov",
    "neg",
)

# Conditional and unconditional jumps.  The ``s`` prefix denotes signed
# comparison, matching eBPF mnemonics.
JMP_OPS = (
    "ja",
    "jeq",
    "jne",
    "jgt",
    "jge",
    "jlt",
    "jle",
    "jsgt",
    "jsge",
    "jslt",
    "jsle",
    "jset",
)

#: Memory access widths in bytes, keyed by mnemonic suffix.
MEM_SIZES = {"b": 1, "h": 2, "w": 4, "dw": 8}


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction.

    ``opcode`` is a symbolic mnemonic string such as ``"add"``, ``"add32"``,
    ``"ldxw"``, ``"stxdw"``, ``"stw"`` (store-immediate), ``"jeq"``,
    ``"lddw"``, ``"call"``, or ``"exit"``.  ``src_is_reg`` selects between the
    register and immediate forms for ALU and jump instructions.
    """

    opcode: str
    dst: int = 0
    src: int = 0
    offset: int = 0
    imm: int = 0
    src_is_reg: bool = False

    def __post_init__(self):
        if not 0 <= self.dst < NUM_REGISTERS:
            raise AssemblerError(f"bad dst register r{self.dst} in {self.opcode}")
        if not 0 <= self.src < NUM_REGISTERS:
            raise AssemblerError(f"bad src register r{self.src} in {self.opcode}")
        if not -(2**15) <= self.offset < 2**15:
            raise AssemblerError(f"offset {self.offset} out of 16-bit range")
        if self.opcode == "lddw":
            if not -(2**63) <= self.imm < 2**64:
                raise AssemblerError("lddw immediate out of 64-bit range")
        elif not -(2**31) <= self.imm < 2**32:
            raise AssemblerError(f"immediate {self.imm} out of 32-bit range")

    def __str__(self) -> str:
        src = f"r{self.src}" if self.src_is_reg else f"{self.imm:#x}"
        return (
            f"{self.opcode} dst=r{self.dst} src={src} off={self.offset}"
            if self.opcode != "exit"
            else "exit"
        )


# ---------------------------------------------------------------------------
# Binary encoding (classic 8-byte eBPF wire format)
# ---------------------------------------------------------------------------

# Instruction class bits.
_CLS_LD = 0x00
_CLS_LDX = 0x01
_CLS_ST = 0x02
_CLS_STX = 0x03
_CLS_ALU32 = 0x04
_CLS_JMP = 0x05
_CLS_ALU64 = 0x07

_SRC_IMM = 0x00
_SRC_REG = 0x08

_SIZE_BITS = {1: 0x10, 2: 0x08, 4: 0x00, 8: 0x18}
_SIZE_FROM_BITS = {value: key for key, value in _SIZE_BITS.items()}

_ALU_CODE = {
    "add": 0x00,
    "sub": 0x10,
    "mul": 0x20,
    "div": 0x30,
    "or": 0x40,
    "and": 0x50,
    "lsh": 0x60,
    "rsh": 0x70,
    "neg": 0x80,
    "mod": 0x90,
    "xor": 0xA0,
    "mov": 0xB0,
    "arsh": 0xC0,
}
_ALU_FROM_CODE = {value: key for key, value in _ALU_CODE.items()}

_JMP_CODE = {
    "ja": 0x00,
    "jeq": 0x10,
    "jgt": 0x20,
    "jge": 0x30,
    "jset": 0x40,
    "jne": 0x50,
    "jsgt": 0x60,
    "jsge": 0x70,
    "call": 0x80,
    "exit": 0x90,
    "jlt": 0xA0,
    "jle": 0xB0,
    "jslt": 0xC0,
    "jsle": 0xD0,
}
_JMP_FROM_CODE = {value: key for key, value in _JMP_CODE.items()}

_INSN = struct.Struct("<BBhi")


def _pack(opcode_byte: int, dst: int, src: int, offset: int, imm: int) -> bytes:
    regs = (src << 4) | dst
    return _INSN.pack(opcode_byte, regs, offset, _signed32(imm & 0xFFFFFFFF))


def encode(instructions: List[Instruction]) -> bytes:
    """Encode to the 8-byte-per-slot eBPF wire format (lddw uses two slots)."""
    out = bytearray()
    for insn in instructions:
        op = insn.opcode
        if op == "lddw":
            imm64 = insn.imm & 0xFFFFFFFFFFFFFFFF
            low = imm64 & 0xFFFFFFFF
            high = (imm64 >> 32) & 0xFFFFFFFF
            opcode_byte = _CLS_LD | 0x18  # BPF_LD | BPF_DW | BPF_IMM
            out += _INSN.pack(opcode_byte, insn.dst, 0, _signed32(low))
            out += _INSN.pack(0, 0, 0, _signed32(high))
            continue
        if op == "exit":
            out += _pack(_CLS_JMP | _JMP_CODE["exit"], 0, 0, 0, 0)
            continue
        if op == "call":
            out += _pack(_CLS_JMP | _JMP_CODE["call"], 0, 0, 0, insn.imm)
            continue
        base = op[:-2] if op.endswith("32") else op
        if base in _ALU_CODE:
            cls = _CLS_ALU32 if op.endswith("32") else _CLS_ALU64
            src_bit = _SRC_REG if insn.src_is_reg else _SRC_IMM
            out += _pack(
                cls | _ALU_CODE[base] | src_bit,
                insn.dst,
                insn.src,
                insn.offset,
                insn.imm,
            )
            continue
        if op in _JMP_CODE:
            src_bit = _SRC_REG if insn.src_is_reg else _SRC_IMM
            out += _pack(
                _CLS_JMP | _JMP_CODE[op] | src_bit,
                insn.dst,
                insn.src,
                insn.offset,
                insn.imm,
            )
            continue
        if op.startswith("ldx"):
            size = MEM_SIZES[op[3:]]
            out += _pack(
                _CLS_LDX | _SIZE_BITS[size] | 0x60,  # BPF_MEM
                insn.dst,
                insn.src,
                insn.offset,
                0,
            )
            continue
        if op.startswith("stx"):
            size = MEM_SIZES[op[3:]]
            out += _pack(
                _CLS_STX | _SIZE_BITS[size] | 0x60,
                insn.dst,
                insn.src,
                insn.offset,
                0,
            )
            continue
        if op.startswith("st"):
            size = MEM_SIZES[op[2:]]
            out += _pack(
                _CLS_ST | _SIZE_BITS[size] | 0x60,
                insn.dst,
                0,
                insn.offset,
                insn.imm,
            )
            continue
        raise AssemblerError(f"cannot encode opcode {op!r}")
    return bytes(out)


def _signed32(value: int) -> int:
    return value - 2**32 if value >= 2**31 else value


def decode(blob: bytes) -> List[Instruction]:
    """Decode wire-format bytes back into :class:`Instruction` records."""
    if len(blob) % 8 != 0:
        raise AssemblerError("encoded program length is not a multiple of 8")
    slots = [_INSN.unpack(blob[i : i + 8]) for i in range(0, len(blob), 8)]
    out: List[Instruction] = []
    index = 0
    while index < len(slots):
        opcode_byte, regs, offset, imm = slots[index]
        dst = regs & 0x0F
        src = (regs >> 4) & 0x0F
        cls = opcode_byte & 0x07
        if cls == _CLS_LD and opcode_byte == (_CLS_LD | 0x18):
            if index + 1 >= len(slots):
                raise AssemblerError("truncated lddw")
            _op2, _regs2, _off2, imm_high = slots[index + 1]
            imm64 = (imm & 0xFFFFFFFF) | ((imm_high & 0xFFFFFFFF) << 32)
            out.append(Instruction("lddw", dst=dst, imm=imm64))
            index += 2
            continue
        if cls in (_CLS_ALU64, _CLS_ALU32):
            base = _ALU_FROM_CODE.get(opcode_byte & 0xF0)
            if base is None:
                raise AssemblerError(
                    f"undefined ALU opcode byte {opcode_byte:#x}")
            name = base + ("32" if cls == _CLS_ALU32 else "")
            src_is_reg = bool(opcode_byte & _SRC_REG)
            out.append(
                Instruction(name, dst=dst, src=src, offset=offset, imm=imm,
                            src_is_reg=src_is_reg)
            )
        elif cls == _CLS_JMP:
            base = _JMP_FROM_CODE.get(opcode_byte & 0xF0)
            if base is None:
                raise AssemblerError(
                    f"undefined jump opcode byte {opcode_byte:#x}")
            if base == "exit":
                out.append(Instruction("exit"))
            elif base == "call":
                out.append(Instruction("call", imm=imm))
            else:
                src_is_reg = bool(opcode_byte & _SRC_REG)
                out.append(
                    Instruction(base, dst=dst, src=src, offset=offset, imm=imm,
                                src_is_reg=src_is_reg)
                )
        elif cls == _CLS_LDX:
            size = _SIZE_FROM_BITS[opcode_byte & 0x18]
            suffix = {1: "b", 2: "h", 4: "w", 8: "dw"}[size]
            out.append(Instruction(f"ldx{suffix}", dst=dst, src=src, offset=offset))
        elif cls == _CLS_STX:
            size = _SIZE_FROM_BITS[opcode_byte & 0x18]
            suffix = {1: "b", 2: "h", 4: "w", 8: "dw"}[size]
            out.append(Instruction(f"stx{suffix}", dst=dst, src=src, offset=offset))
        elif cls == _CLS_ST:
            size = _SIZE_FROM_BITS[opcode_byte & 0x18]
            suffix = {1: "b", 2: "h", 4: "w", 8: "dw"}[size]
            out.append(Instruction(f"st{suffix}", dst=dst, offset=offset, imm=imm))
        else:
            raise AssemblerError(f"cannot decode opcode byte {opcode_byte:#x}")
        index += 1
    return out
