"""Execution engines for verified programs.

Two modes with identical semantics:

* ``interp`` — decode-and-dispatch per instruction (the kernel's
  interpreter, and the reference the differential tests compare against).
  It checks everything, always, and reads no proof.
* ``block`` — the default, standing in for the kernel's JIT: at load time
  the whole program is compiled into ONE generated Python function.
  Registers and the retired-instruction count are locals, basic blocks
  hand over to each other inside the function (instruction budget checked
  once per block, no per-instruction pc bounds check), each helper call
  site is specialised by the `HelperSpec` known at compile time, and
  context accesses go through exact ``(offset, size)`` tables built from
  the program's layout.  Like the kernel's JIT it spends the verifier's
  proof: a site the program's `Proof` covers is emitted without its
  run-time guards (see below).  The ablation benchmark compares the two.

Memory model.  Registers hold either 64-bit unsigned integers or
:class:`Pointer` values tagged with the :class:`Region` they point into.
A load or store is bounds-checked against its region unless the block tier
holds a proof of it: `verify` attaches a
:class:`~repro.ebpf.verifier.Proof` to the program, and a ``block`` Vm,
when it is built, compares what that proof was made for and against (the
instructions, the ctx layout, the helper specs) with what it
is about to run.  Only on a match are the proof's per-instruction facts
handed to the code generator.  ``program.verified`` is never consulted
for this: a forged flag has no proof and gets every guard.  Which sites
keep their checks even under a proof, and why:

* any site the proof has no fact for (an instruction no explored state
  reached, a register the verifier knows nothing firm about);
* stack accesses: a slot may hold a spilled pointer, and the rules for
  reading or overwriting one are run-time state;
* what is not a memory site at all: the instruction budget, a pointer in
  r0 at exit, and `Vm.run`'s entry checks (every ctx region present and
  exactly its declared size), on which the unguarded sites rest.

A proven site of 2, 4 or 8 bytes is one call to a precompiled
little-endian `struct.Struct` method.  Inside one basic block, a proven
pointer into a region sized at entry may live as a bare offset local
instead of a :class:`Pointer`: where nothing but proven sites and bare
``pointer +/- scalar`` read it before it is overwritten or dies (see
`_unboxed`; ``Vm.unboxed`` lists those pcs).

The context struct is special-cased: loads of pointer-kind fields (per the
program's :class:`~repro.ebpf.program.CtxLayout`) materialise pointers to
the buffer regions the hook passed in, and stores are only allowed to
fields the layout marks writable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import VmFault
from repro.perf.profiler import get_default_profiler
from repro.ebpf.helpers import HelperRegistry, HelperSpec
from repro.ebpf.isa import FP_REG, MEM_SIZES, STACK_SIZE
from repro.ebpf.program import FieldKind, Program
from repro.ebpf.verifier import (Proof, Ptr, Scalar, proof_context,
                                 registers_read)

__all__ = ["ExecutionResult", "Pointer", "Region", "Vm"]

U64 = 0xFFFFFFFFFFFFFFFF
U32 = 0xFFFFFFFF


def _s64(value: int) -> int:
    return value - 2**64 if value >= 2**63 else value


def _s32(value: int) -> int:
    return value - 2**32 if value >= 2**31 else value


class Region:
    """A named, bounds-checked span of bytes the program may touch."""

    __slots__ = ("name", "data", "readable", "writable")

    def __init__(self, name: str, data: bytearray, readable: bool = True,
                 writable: bool = True):
        self.name = name
        self.data = data
        self.readable = readable
        self.writable = writable

    def __repr__(self) -> str:
        return f"Region({self.name!r}, {len(self.data)}B)"


class Pointer:
    """A runtime pointer: region + byte offset."""

    __slots__ = ("region", "offset")

    def __init__(self, region: Region, offset: int):
        self.region = region
        self.offset = offset

    def moved(self, delta: int) -> "Pointer":
        return Pointer(self.region, self.offset + delta)

    def __repr__(self) -> str:
        return f"<{self.region.name}+{self.offset}>"


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: int
    instructions: int
    helper_calls: int = 0


class Vm:
    """Executes a verified :class:`Program` with a helper registry."""

    def __init__(self, program: Program, helpers: HelperRegistry,
                 mode: str = "interp", max_instructions: int = 1_000_000,
                 require_verified: bool = True):
        if mode not in ("interp", "block"):
            raise VmFault(f"unknown execution mode {mode!r}")
        if require_verified and not program.verified:
            raise VmFault(
                f"program {program.name!r} was not accepted by the verifier"
            )
        self.program = program
        self.helpers = helpers
        self.mode = mode
        self.max_instructions = max_instructions
        # What every run needs from the layout, resolved once.
        layout = program.ctx_layout
        self._ctx_size = layout.size
        self._pointer_fields = tuple(
            (ctx_field.region, ctx_field.region_size, ctx_field.writable)
            for ctx_field in layout.fields
            if ctx_field.kind is FieldKind.POINTER)
        self._compiled: Optional[Callable[["_RunState"], int]] = None
        #: Block tier: the pcs whose generated code keeps run-time guards
        #: (every checked site, without a proof that covers this Vm).
        self.guarded: frozenset = frozenset()
        #: Block tier: the pcs whose pointer the generated code never
        #: builds, keeping only its offset (see `_unboxed`).
        self.unboxed: frozenset = frozenset()
        if mode == "block":
            binder = _binder_for(self)
            self.guarded = binder.guarded
            self.unboxed = binder.unboxed
            self._compiled = binder(self)

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------

    def mem_read(self, ptr: Any, length: int) -> bytes:
        if not isinstance(ptr, Pointer):
            raise VmFault(f"read through non-pointer {ptr!r}")
        region = ptr.region
        if not region.readable:
            raise VmFault(f"region {region.name!r} is not readable")
        if ptr.offset < 0 or ptr.offset + length > len(region.data):
            raise VmFault(
                f"read [{ptr.offset}, {ptr.offset + length}) out of bounds of "
                f"{region.name!r} ({len(region.data)}B)"
            )
        return bytes(region.data[ptr.offset : ptr.offset + length])

    def mem_write(self, ptr: Any, data: bytes) -> None:
        if not isinstance(ptr, Pointer):
            raise VmFault(f"write through non-pointer {ptr!r}")
        region = ptr.region
        if not region.writable:
            raise VmFault(f"region {region.name!r} is not writable")
        if ptr.offset < 0 or ptr.offset + len(data) > len(region.data):
            raise VmFault(
                f"write [{ptr.offset}, {ptr.offset + len(data)}) out of bounds "
                f"of {region.name!r} ({len(region.data)}B)"
            )
        region.data[ptr.offset : ptr.offset + len(data)] = data

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(self, ctx: bytearray,
            regions: Optional[Dict[str, bytearray]] = None) -> ExecutionResult:
        """Execute the program over context bytes ``ctx``.

        ``regions`` supplies backing storage for every pointer-kind ctx field
        (keyed by the field's region name).  Output fields written by the
        program land in ``ctx`` in place.
        """
        state = self._enter(ctx, regions)
        profiler = get_default_profiler()
        if profiler.enabled:
            # Counted after the run, so only a run that returned is.
            result = (self._run_block(state) if self.mode == "block"
                      else self._run_interp(state))
            profiler.on_program(self.program.name, self.mode, state.executed)
            return result
        if self.mode == "block":
            return self._run_block(state)
        return self._run_interp(state)

    def _enter(self, ctx: bytearray,
               regions: Optional[Dict[str, bytearray]]) -> "_RunState":
        """The entry checks, and the state of a run about to start.

        What the checks establish is what the block tier's proven sites
        rest on besides the proof: ``ctx`` covers the layout, and every
        pointer field's region is present and exactly its declared size.
        """
        if len(ctx) < self._ctx_size:
            raise VmFault(
                f"ctx too small: {len(ctx)} < layout size {self._ctx_size}"
            )
        regions = regions or {}
        region_objs: Dict[str, Region] = {}
        for name, size, writable in self._pointer_fields:
            if name not in regions:
                raise VmFault(f"missing region {name!r}")
            backing = regions[name]
            if len(backing) != size:
                raise VmFault(
                    f"region {name!r} is {len(backing)}B, "
                    f"layout declares {size}B"
                )
            region_objs[name] = Region(name, backing, True, writable)

        return _RunState(self, ctx, region_objs)

    # -- interpreter ----------------------------------------------------

    def _run_interp(self, state: "_RunState",
                    pc: int = 0) -> ExecutionResult:
        insns = self.program.instructions
        while True:
            if state.executed >= self.max_instructions:
                raise VmFault("instruction budget exhausted", pc)
            if not 0 <= pc < len(insns):
                raise VmFault(f"pc {pc} out of program", pc)
            state.executed += 1
            insn = insns[pc]
            next_pc = _step(state, insn, pc)
            if next_pc is None:
                break
            pc = next_pc
        return state.result()

    # -- block mode -------------------------------------------------------

    def _run_block(self, state: "_RunState") -> ExecutionResult:
        """Run the program's one compiled function (see `_compile_program`).

        It returns ``-1`` on exit, or the pc of the first instruction of
        the block its hoisted budget check saw the budget running out in:
        that tail re-runs per-instruction so the fault lands on exactly
        the same instruction (with the same executed count) as the
        interpreter.
        """
        pc = self._compiled(state)
        if pc < 0:
            return state.result()
        return self._run_interp(state, pc=pc)


class _RunState:
    """Per-run mutable state: registers, stack, ctx, spilled pointers."""

    __slots__ = (
        "vm", "regs", "ctx", "ctx_region", "stack", "stack_region",
        "stack_ptr_slots", "regions", "executed", "helper_calls",
    )

    def __init__(self, vm: Vm, ctx: bytearray, regions: Dict[str, Region]):
        self.vm = vm
        self.ctx = ctx
        self.ctx_region = Region("ctx", ctx, writable=True)
        self.stack = bytearray(STACK_SIZE)
        self.stack_region = Region("stack", self.stack)
        self.stack_ptr_slots: Dict[int, Pointer] = {}
        self.regions = regions
        self.executed = 0
        self.helper_calls = 0
        self.regs: List[Any] = [0] * 11
        self.regs[1] = Pointer(self.ctx_region, 0)
        self.regs[FP_REG] = Pointer(self.stack_region, STACK_SIZE)

    def result(self) -> ExecutionResult:
        r0 = self.regs[0]
        if isinstance(r0, Pointer):
            raise VmFault("program returned a pointer in r0")
        return ExecutionResult(
            return_value=r0 & U64,
            instructions=self.executed,
            helper_calls=self.helper_calls,
        )


# ---------------------------------------------------------------------------
# Shared single-step semantics
# ---------------------------------------------------------------------------

_ALU_FN = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "xor": lambda a, b: a ^ b,
}

_JMP_FN = {
    "jeq": lambda a, b: a == b,
    "jne": lambda a, b: a != b,
    "jgt": lambda a, b: a > b,
    "jge": lambda a, b: a >= b,
    "jlt": lambda a, b: a < b,
    "jle": lambda a, b: a <= b,
    "jset": lambda a, b: (a & b) != 0,
    "jsgt": lambda a, b: _s64(a) > _s64(b),
    "jsge": lambda a, b: _s64(a) >= _s64(b),
    "jslt": lambda a, b: _s64(a) < _s64(b),
    "jsle": lambda a, b: _s64(a) <= _s64(b),
}


def _as_scalar(value: Any, what: str, pc: int) -> int:
    if isinstance(value, Pointer):
        raise VmFault(f"{what} is a pointer, expected scalar", pc)
    return value


def _load(state: _RunState, base: Any, offset: int, size: int, pc: int) -> Any:
    if not isinstance(base, Pointer):
        raise VmFault(f"load through non-pointer {base!r}", pc)
    region = base.region
    addr = base.offset + offset
    # Context loads may materialise pointers per the layout.
    if region is state.ctx_region:
        layout = state.vm.program.ctx_layout
        try:
            ctx_field = layout.field_at(addr, size)
        except KeyError:
            raise VmFault(f"ctx load at ({addr}, {size}) hits no field", pc)
        if ctx_field.kind is FieldKind.POINTER:
            target = state.regions.get(ctx_field.region)
            if target is None:
                raise VmFault(f"region {ctx_field.region!r} unavailable", pc)
            return Pointer(target, 0)
        raw = state.ctx[addr : addr + size]
        return int.from_bytes(raw, "little")
    # Stack loads may restore a spilled pointer; anything short of a full
    # aligned 8-byte read over a spilled slot is rejected the way the
    # kernel rejects partial reads of spilled pointers (the raw bytes are
    # poison, never data).
    if region is state.stack_region:
        slots = state.stack_ptr_slots
        if slots:
            if size == 8:
                spilled = slots.get(addr)
                if spilled is not None:
                    return spilled
            for slot in slots:
                if slot < addr + size and addr < slot + 8:
                    raise VmFault(
                        f"partial read of spilled pointer at stack+{slot}",
                        pc)
    data = state.vm.mem_read(Pointer(region, addr), size)
    return int.from_bytes(data, "little")


def _store(state: _RunState, base: Any, offset: int, size: int, value: Any,
           pc: int) -> None:
    if not isinstance(base, Pointer):
        raise VmFault(f"store through non-pointer {base!r}", pc)
    region = base.region
    addr = base.offset + offset
    if region is state.ctx_region:
        layout = state.vm.program.ctx_layout
        try:
            ctx_field = layout.field_at(addr, size)
        except KeyError:
            raise VmFault(f"ctx store at ({addr}, {size}) hits no field", pc)
        if not ctx_field.writable or ctx_field.kind is not FieldKind.SCALAR:
            raise VmFault(f"ctx field {ctx_field.name!r} is not writable", pc)
        scalar = _as_scalar(value, "ctx store value", pc)
        state.ctx[addr : addr + size] = (scalar & ((1 << (8 * size)) - 1)).to_bytes(
            size, "little"
        )
        return
    if isinstance(value, Pointer):
        # Pointer spill: only full 8-byte aligned stack slots.
        if region is not state.stack_region or size != 8 or addr % 8 != 0:
            raise VmFault("pointer may only be spilled to aligned stack slot", pc)
        if addr < 0 or addr + 8 > STACK_SIZE:
            raise VmFault("stack spill out of bounds", pc)
        state.stack_ptr_slots[addr] = value
        state.stack[addr : addr + 8] = b"\xff" * 8  # poison raw view
        return
    if region is state.stack_region and state.stack_ptr_slots:
        # A scalar store over a spilled pointer invalidates the spill.
        for slot in list(state.stack_ptr_slots):
            if slot < addr + size and addr < slot + 8:
                del state.stack_ptr_slots[slot]
    scalar = _as_scalar(value, "store value", pc)
    state.vm.mem_write(
        Pointer(region, addr),
        (scalar & ((1 << (8 * size)) - 1)).to_bytes(size, "little"),
    )


def _alu(state: _RunState, op: str, is32: bool, dst_val: Any, src_val: Any,
         pc: int) -> Any:
    # Pointer arithmetic first.
    if op == "mov":
        return src_val if not is32 else (_as_scalar(src_val, "mov32", pc) & U32)
    if isinstance(dst_val, Pointer) or isinstance(src_val, Pointer):
        if is32:
            raise VmFault("32-bit ALU on pointer", pc)
        if op == "add":
            if isinstance(dst_val, Pointer) and isinstance(src_val, Pointer):
                raise VmFault("pointer + pointer", pc)
            if isinstance(dst_val, Pointer):
                return dst_val.moved(_s64(_as_scalar(src_val, "addend", pc)))
            return src_val.moved(_s64(_as_scalar(dst_val, "addend", pc)))
        if op == "sub":
            if isinstance(dst_val, Pointer) and isinstance(src_val, Pointer):
                if dst_val.region is not src_val.region:
                    raise VmFault("pointer difference across regions", pc)
                return (dst_val.offset - src_val.offset) & U64
            if isinstance(dst_val, Pointer):
                return dst_val.moved(-_s64(_as_scalar(src_val, "subtrahend", pc)))
        raise VmFault(f"ALU op {op!r} on pointer", pc)
    a = dst_val
    b = src_val
    if is32:
        a &= U32
        b &= U32
    if op in _ALU_FN:
        result = _ALU_FN[op](a, b)
    elif op == "lsh":
        result = a << (b & (31 if is32 else 63))
    elif op == "rsh":
        result = a >> (b & (31 if is32 else 63))
    elif op == "div":
        result = 0 if b == 0 else a // b
    elif op == "mod":
        result = a if b == 0 else a % b
    elif op == "arsh":
        shift = b & (31 if is32 else 63)
        signed = _s32(a) if is32 else _s64(a)
        result = signed >> shift
    elif op == "neg":
        result = -a
    else:
        raise VmFault(f"unknown ALU op {op!r}", pc)
    return (result & U32) if is32 else (result & U64)


def _jump_compare(op: str, a: Any, b: Any, pc: int) -> bool:
    a_ptr = isinstance(a, Pointer)
    b_ptr = isinstance(b, Pointer)
    if a_ptr or b_ptr:
        if op not in ("jeq", "jne"):
            raise VmFault(f"ordered comparison {op!r} on pointer", pc)
        if a_ptr and b_ptr:
            same = a.region is b.region and a.offset == b.offset
        else:
            # Pointer vs scalar: a pointer never equals NULL (or any
            # scalar).
            same = False
        return same if op == "jeq" else not same
    return _JMP_FN[op](a & U64, b & U64)


def _call_helper(state: _RunState, helper_id: int, pc: int) -> None:
    vm = state.vm
    spec = vm.helpers.spec(helper_id)
    args = [_as_scalar(state.regs[reg], f"helper arg {reg}", pc) & U64
            for reg in range(1, 1 + spec.nargs)]
    state.helper_calls += 1
    result = vm.helpers.impls[helper_id](vm, *args)
    # Clobber caller-saved registers like the kernel ABI.
    for reg in range(1, 6):
        state.regs[reg] = 0
    state.regs[0] = _as_scalar(result, "helper return", pc) & U64


_ALU_BASES = ("add", "sub", "mul", "div", "mod", "or", "and", "xor", "lsh",
              "rsh", "arsh", "mov", "neg")

# Opcode kinds for the interpreter's decode cache: the mnemonic string is
# parsed once per distinct opcode, not once per executed instruction.
(_K_ALU, _K_JMP, _K_LDX, _K_STX, _K_ST, _K_CALL, _K_JA, _K_LDDW, _K_EXIT,
 _K_BAD) = range(10)

_DECODE: Dict[str, Tuple[int, str, bool, int]] = {}


def _decode_op(op: str) -> Tuple[int, str, bool, int]:
    """Parse one mnemonic into ``(kind, alu_base, is32, mem_size)``."""
    if op == "exit":
        info = (_K_EXIT, "", False, 0)
    elif op == "call":
        info = (_K_CALL, "", False, 0)
    elif op == "ja":
        info = (_K_JA, "", False, 0)
    elif op == "lddw":
        info = (_K_LDDW, "", False, 0)
    elif op in _JMP_FN:
        info = (_K_JMP, "", False, 0)
    elif op.startswith("ldx"):
        info = (_K_LDX, "", False, MEM_SIZES[op[3:]])
    elif op.startswith("stx"):
        info = (_K_STX, "", False, MEM_SIZES[op[3:]])
    elif op.startswith("st"):
        info = (_K_ST, "", False, MEM_SIZES[op[2:]])
    else:
        is32 = op.endswith("32")
        base = op[:-2] if is32 else op
        if base in _ALU_BASES:
            info = (_K_ALU, base, is32, 0)
        else:
            info = (_K_BAD, "", False, 0)
    _DECODE[op] = info
    return info


def _step(state: _RunState, insn, pc: int) -> Optional[int]:
    """Execute one instruction; returns next pc or None on exit."""
    op = insn.opcode
    info = _DECODE.get(op) or _decode_op(op)
    kind = info[0]
    regs = state.regs

    if kind == _K_ALU:
        base = info[1]
        if insn.dst == FP_REG:
            raise VmFault("write to frame pointer r10", pc)
        if base == "neg":
            regs[insn.dst] = _alu(state, "neg", info[2], regs[insn.dst], 0,
                                  pc)
            return pc + 1
        src_val = regs[insn.src] if insn.src_is_reg else insn.imm & U64
        regs[insn.dst] = _alu(state, base, info[2], regs[insn.dst],
                              src_val, pc)
        return pc + 1

    if kind == _K_JMP:
        a = regs[insn.dst]
        b = regs[insn.src] if insn.src_is_reg else insn.imm & U64
        if _jump_compare(op, a, b, pc):
            return pc + 1 + insn.offset
        return pc + 1

    if kind == _K_LDX:
        regs[insn.dst] = _load(state, regs[insn.src], insn.offset, info[3],
                               pc)
        return pc + 1
    if kind == _K_STX:
        _store(state, regs[insn.dst], insn.offset, info[3], regs[insn.src],
               pc)
        return pc + 1
    if kind == _K_ST:
        _store(state, regs[insn.dst], insn.offset, info[3], insn.imm & U64,
               pc)
        return pc + 1

    if kind == _K_EXIT:
        return None
    if kind == _K_CALL:
        _call_helper(state, insn.imm, pc)
        return pc + 1
    if kind == _K_JA:
        return pc + 1 + insn.offset
    if kind == _K_LDDW:
        regs[insn.dst] = insn.imm & U64
        return pc + 1

    raise VmFault(f"unknown opcode {op!r}", pc)


# ---------------------------------------------------------------------------
# Whole-program compilation (the default execution tier)
# ---------------------------------------------------------------------------
#
# At load time the program is split into basic blocks (leaders = entry,
# jump targets, and fall-throughs of jumps/exits) and ALL of them are
# compiled into ONE generated Python function per program:
#
#   * r0-r10 and the retired-instruction count ``n`` are Python locals;
#     they are written back to the run state only where somebody reads
#     them (exit, the budget tail, a fault);
#   * blocks hand over to each other inside the function: ``_blk`` names
#     the next block and a ``while True:`` loop re-dispatches.  Dispatch is
#     a balanced ``if _blk < mid:`` tree whose leaves are runs of at most
#     `_LEAF_BLOCKS` consecutive blocks tested with ``if _blk <= k:``, so a
#     fall-through costs nothing, a forward jump inside a leaf skips ahead
#     without re-dispatching, and a loop late in a long program costs
#     log2(blocks) tests per iteration, not one test per block before it;
#   * the instruction budget is checked once per block; a block that would
#     cross it is replayed by the interpreter from its first instruction,
#     so the fault names the same pc with the same count;
#   * each helper call site is specialised by the `HelperSpec` its id had
#     at compile time (argument classes checked in one guard, the return
#     kind applied inline) and calls the implementation bound from the
#     running Vm's registry; a site whose id the registry does not know,
#     or whose guard fails, goes through `_call_helper`; the calls the
#     function makes itself are counted in a local, like ``n``;
#   * context accesses are looked up in exact per-size offset tables built
#     from the program's `CtxLayout`; ``pointer +/- scalar`` is inline.
#
# Every emitter takes the proof's facts for its pc (``known``: one entry
# per register, all None without a proof that covers the program) and
# emits one of two things.  Where the facts cover the site, the bare
# operation: a ctx access at a proven constant offset resolves its field
# now, a load or store proven inside a region `Vm.run` sizes at entry
# addresses the region's buffer (``_D_<region>``, bound in the prologue),
# both by one `_PACKERS` call (or an index, for a byte), scalar ALU
# operations and branches lose their class tests and provably
# idle masks, a call with proven argument classes loses its guard.
# A pointer the proof places in such a region, read only for its offset
# before it dies inside its block, is never built: the offset local
# ``_q<reg>`` stands in for it (`_unboxed` decides).
# Everywhere else, the guarded form: fast paths behind exact ``__class__
# is int`` / ``is Pointer`` tests that keep every region check
# (readable/writable, bounds against ``len(region.data)``, ctx field
# writability, spilled-pointer rules); whatever a guard turns away falls
# back to the shared `_alu`/`_load`/`_store`/`_jump_compare`/`_call_helper`
# routines, which is what keeps fault messages and semantics identical to
# the interpreter.  Without facts the output is exactly the guarded form
# (`tests/data/guarded_block_source.txt` pins it).  Register invariant
# relied on throughout: integer register values are always already reduced
# to [0, 2**64).

#: Consecutive blocks per leaf of the dispatch tree (linear inside a leaf).
_LEAF_BLOCKS = 8

#: Little-endian unsigned access by size for proven sites, bound into the
#: generated function: ``_L8(buffer, offset)[0]`` reads 8 bytes and
#: ``_S8(buffer, offset, value)`` writes them, allocating nothing.
_PACKERS = {size: struct.Struct("<" + code)
            for size, code in ((2, "H"), (4, "I"), (8, "Q"))}

# Int-only expression templates.  They reproduce `_alu`'s results exactly
# for in-range integer operands (see the invariant above), skipping masks
# that are provably no-ops.
_EXPR64 = {
    "add": "({a} + {b}) & U64",
    "sub": "({a} - {b}) & U64",
    "mul": "({a} * {b}) & U64",
    "or": "{a} | {b}",
    "and": "{a} & {b}",
    "xor": "{a} ^ {b}",
    "lsh": "({a} << ({b} & 63)) & U64",
    "rsh": "{a} >> ({b} & 63)",
    "arsh": "(_s64({a}) >> ({b} & 63)) & U64",
    "div": "0 if {b} == 0 else {a} // {b}",
    "mod": "{a} if {b} == 0 else {a} % {b}",
}
_EXPR32 = {
    "add": "(({a} & U32) + ({b} & U32)) & U32",
    "sub": "(({a} & U32) - ({b} & U32)) & U32",
    "mul": "(({a} & U32) * ({b} & U32)) & U32",
    "or": "({a} & U32) | ({b} & U32)",
    "and": "{a} & {b} & U32",
    "xor": "(({a} & U32) ^ ({b} & U32))",
    "lsh": "(({a} & U32) << ({b} & 31)) & U32",
    "rsh": "({a} & U32) >> ({b} & 31)",
    "arsh": "(_s32({a} & U32) >> ({b} & 31)) & U32",
    "div": "0 if ({b} & U32) == 0 else ({a} & U32) // ({b} & U32)",
    "mod": "({a} & U32) if ({b} & U32) == 0 else ({a} & U32) % ({b} & U32)",
}
_COND = {
    "jeq": "{a} == {b}",
    "jne": "{a} != {b}",
    "jgt": "{a} > {b}",
    "jge": "{a} >= {b}",
    "jlt": "{a} < {b}",
    "jle": "{a} <= {b}",
    "jset": "({a} & {b}) != 0",
    "jsgt": "_s64({a}) > _s64({b})",
    "jsge": "_s64({a}) >= _s64({b})",
    "jslt": "_s64({a}) < _s64({b})",
    "jsle": "_s64({a}) <= _s64({b})",
}
#: `_s64` of an in-range integer register, as an inline expression.
_SIGNED = "({v} - 18446744073709551616 if {v} >= 9223372036854775808 else {v})"

#: Signed conditions and the unsigned ones they equal on [0, 2**63).
_UNSIGNED = {"jsgt": "jgt", "jsge": "jge", "jslt": "jlt", "jsle": "jle"}

#: The facts of a pc the proof says nothing about, one per register.
_NOTHING_KNOWN = (None,) * 11
_ALL_REGS = ", ".join(f"r{reg}" for reg in range(11))


def _source(insn, known: tuple) -> Tuple[str, Any]:
    """The second operand of an ALU operation or a branch: what the
    generated code calls it, and its fact."""
    if insn.src_is_reg:
        return f"r{insn.src}", known[insn.src]
    imm = insn.imm & U64
    return str(imm), Scalar(imm, imm)


def _bare_alu(base: str, is32: bool, d: str, s: str, a: Any,
              b: Any) -> Optional[str]:
    """The result as one unguarded expression, if the facts ``a`` and ``b``
    of the two operands (named ``d`` and ``s``) prove both scalars."""
    if type(a) is not Scalar or type(b) is not Scalar:
        return None
    if is32:
        return _EXPR32[base].format(a=d, b=s)
    # The ``& U64`` goes where the ranges prove it a no-op.
    if base == "add" and a.umax + b.umax <= U64:
        return f"{d} + {s}"
    if base == "sub" and a.umin >= b.umax:
        return f"{d} - {s}"
    if base == "mul" and a.umax * b.umax <= U64:
        return f"{d} * {s}"
    if base == "lsh" and b.const is not None:
        shift = b.const & 63
        fits = a.umax << shift <= U64
        return f"{d} << {shift}" if fits else f"({d} << {shift}) & U64"
    return _EXPR64[base].format(a=d, b=s)


def _pointer_move(base: str, is32: bool, insn,
                  known: tuple) -> Optional[Tuple[int, str]]:
    """If the facts prove the ALU operation ``insn`` a bare ``pointer +/-
    scalar``: the register holding the pointer, and what moves its offset
    (`` + r2``, `` + (16)``).  The signed reading of the scalar goes where
    the range proves it non-negative, and is folded into a constant."""
    if is32 or base not in ("add", "sub"):
        return None
    s, b = _source(insn, known)
    a = known[insn.dst]
    if type(a) is Ptr and type(b) is Scalar:
        ptr, scalar, delta = insn.dst, b, s
    elif base == "add" and type(a) is Scalar and type(b) is Ptr:
        ptr, scalar, delta = insn.src, a, f"r{insn.dst}"
    else:
        return None
    if scalar.const is not None:
        moved = _s64(scalar.const)
        return ptr, f" + ({moved if base == 'add' else -moved})"
    if scalar.umax >= 2**63:
        delta = _SIGNED.format(v=delta)
    return ptr, f" {'+' if base == 'add' else '-'} {delta}"


def _emit_alu(out: List[str], pad: str, insn, pc: int, base: str,
              is32: bool, known: tuple, memory: "_Memory",
              unbox: bool) -> bool:
    """Emit one ALU instruction; True if its code keeps run-time guards.

    ``known`` is the proof's fact per register at this pc (all None
    without a proof); so for every emitter below.  ``unbox``: the pointer
    this pc makes is kept as the offset local ``_q<dst>`` (see `_unboxed`).
    """
    if insn.dst == FP_REG:
        out.append(f"{pad}raise VmFault('write to frame pointer r10', {pc})")
        return True
    d = f"r{insn.dst}"
    if base == "mov":
        if not insn.src_is_reg:
            value = insn.imm & U64
            out.append(f"{pad}{d} = {value & U32 if is32 else value}")
        elif not is32:
            out.append(f"{pad}{d} = r{insn.src}")
        elif type(known[insn.src]) is Scalar:
            out.append(f"{pad}{d} = r{insn.src} & U32")
        else:
            s = f"r{insn.src}"
            out.append(f"{pad}{d} = {s} & U32 if {s}.__class__ is int else "
                       f"_alu(state, 'mov', True, 0, {s}, {pc})")
            return True
        return False
    if base == "neg":
        fast = f"(-({d} & U32)) & U32" if is32 else f"(-{d}) & U64"
        if type(known[insn.dst]) is Scalar:
            out.append(f"{pad}{d} = {fast}")
            return False
        out.append(f"{pad}{d} = {fast} if {d}.__class__ is int else "
                   f"_alu(state, 'neg', {is32}, {d}, 0, {pc})")
        return True
    move = _pointer_move(base, is32, insn, known)
    if move is not None:
        ptr, delta = move
        offset = memory.offset_of(ptr) + delta
        if unbox:
            out.append(f"{pad}_q{insn.dst} = {offset}")
        elif ptr in memory.held:
            region = memory.held[ptr]
            memory.bound.add(region)
            out.append(f"{pad}{d} = Pointer(_R_{region}, {offset})")
        else:
            out.append(f"{pad}{d} = Pointer(r{ptr}.region, {offset})")
        return False
    s, src_fact = _source(insn, known)
    bare = _bare_alu(base, is32, d, s, known[insn.dst], src_fact)
    if bare is not None:
        out.append(f"{pad}{d} = {bare}")
        return False
    table = _EXPR32 if is32 else _EXPR64
    # 64-bit add/sub also move a pointer by a scalar inline.
    moves = not is32 and base in ("add", "sub")
    if insn.src_is_reg:
        out.append(f"{pad}if {d}.__class__ is int and {s}.__class__ is int:")
        out.append(f"{pad} {d} = {table[base].format(a=d, b=s)}")
        if moves:
            sign = "+" if base == "add" else "-"
            out.append(f"{pad}elif {d}.__class__ is Pointer "
                       f"and {s}.__class__ is int:")
            out.append(f"{pad} {d} = Pointer({d}.region, {d}.offset {sign} "
                       f"{_SIGNED.format(v=s)})")
        if moves and base == "add":
            out.append(f"{pad}elif {d}.__class__ is int "
                       f"and {s}.__class__ is Pointer:")
            out.append(f"{pad} {d} = Pointer({s}.region, {s}.offset + "
                       f"{_SIGNED.format(v=d)})")
    else:
        out.append(f"{pad}if {d}.__class__ is int:")
        out.append(f"{pad} {d} = {table[base].format(a=d, b=s)}")
        if moves:
            delta = _s64(insn.imm & U64)
            out.append(f"{pad}elif {d}.__class__ is Pointer:")
            out.append(f"{pad} {d} = Pointer({d}.region, {d}.offset + "
                       f"({delta if base == 'add' else -delta}))")
    out.append(f"{pad}else:")
    out.append(f"{pad} {d} = _alu(state, {base!r}, {is32}, {d}, {s}, {pc})")
    return True


def _jump_test(insn, pc: int, op: str, known: tuple) -> Tuple[str, bool]:
    """The branch condition of a conditional jump, as one expression, and
    whether it keeps its class guard."""
    d = f"r{insn.dst}"
    s, src_fact = _source(insn, known)
    guard = f"{d}.__class__ is int"
    if insn.src_is_reg:
        guard += f" and {s}.__class__ is int"
    dst_fact = known[insn.dst]
    if type(dst_fact) is Scalar and type(src_fact) is Scalar:
        if dst_fact.umax < 2**63 and src_fact.umax < 2**63:
            # Signed and unsigned order agree on the non-negative half.
            op = _UNSIGNED.get(op, op)
        return _COND[op].format(a=d, b=s), False
    return (f"({_COND[op].format(a=d, b=s)}) if {guard} "
            f"else _jump_compare({op!r}, {d}, {s}, {pc})"), True


class _Memory:
    """What the load and store emitters know about the program's memory.

    ``fields`` is the layout's exact-access index.  ``sized`` maps each
    region a proven site may address directly to its ctx pointer field:
    the regions `Vm.run` checks at entry to be present and exactly
    ``region_size`` long.  The stack (spilled-pointer rules) is not among
    them, so its sites keep every guard.  ``bound`` collects the regions
    the emitted code does address directly, for the function's prologue
    to bind.  ``held`` maps each register whose pointer the current block
    keeps as the offset local ``_q<reg>`` to the pointer's region.
    """

    def __init__(self, layout):
        self.fields = layout.by_access
        self.ctx_size = layout.size
        named: Dict[str, List[Any]] = {}
        for ctx_field in layout.fields:
            if ctx_field.kind is FieldKind.POINTER:
                named.setdefault(ctx_field.region, []).append(ctx_field)
        self.sized = {name: fields[0] for name, fields in named.items()
                      if len(fields) == 1 and name.isidentifier()}
        self.bound: set = set()
        self.held: Dict[int, str] = {}

    def ctx_field(self, base: Any, offset: int, size: int):
        """The field an access through the fact ``base`` lands on exactly,
        if ``base`` is the ctx pointer at a proven constant offset."""
        if type(base) is not Ptr or base.region != "ctx" or \
                base.off_min != base.off_max or base.size != self.ctx_size:
            return None
        return self.fields.get((base.off_min + offset, size))

    def pointer_field(self, base: Any, offset: int, size: int
                      ) -> Optional[str]:
        """The region a load through the fact ``base`` reads the pointer
        to, if it is a ctx pointer field to a region sized at entry."""
        ctx_field = self.ctx_field(base, offset, size)
        if ctx_field is None or ctx_field.region not in self.sized:
            return None
        return ctx_field.region

    def is_sized(self, fact: Any) -> bool:
        """True if ``fact`` is a pointer into a region sized at entry."""
        return type(fact) is Ptr and fact.region in self.sized and \
            self.sized[fact.region].region_size == fact.size

    def proven(self, base: Any, offset: int, size: int,
               write: bool) -> Optional[str]:
        """The buffer an access through the fact ``base`` addresses
        (``ctx``, ``_D_data``), if the fact proves the bytes inside a
        scalar ctx field or a region sized at entry, writable if
        ``write``; else None, and the site keeps its guards."""
        ctx_field = self.ctx_field(base, offset, size)
        if ctx_field is not None:
            if ctx_field.kind is not FieldKind.SCALAR:
                return None
            buffer = "ctx"
        else:
            if not self.is_sized(base) or base.off_min + offset < 0 or \
                    base.off_max + offset + size > base.size:
                return None
            ctx_field = self.sized[base.region]
            buffer = f"_D_{base.region}"
        if write and not ctx_field.writable:
            return None
        return buffer

    def offset_of(self, reg: int) -> str:
        """The offset of the pointer in ``reg``, as an expression."""
        return f"_q{reg}" if reg in self.held else f"r{reg}.offset"

    def site(self, reg: int, base: Any, offset: int, size: int,
             write: bool) -> Optional[Tuple[str, str]]:
        """The buffer and the byte offset an access through register
        ``reg`` names (``ctx``, ``40``; ``_D_data``, ``_q2 + 8``), if it is
        `proven`; else None."""
        buffer = self.proven(base, offset, size, write)
        if buffer is None:
            return None
        if buffer != "ctx":
            self.bound.add(base.region)
        if base.off_min == base.off_max:
            return buffer, str(base.off_min + offset)
        return buffer, self.offset_of(reg) + (f" + {offset}" if offset
                                              else "")


def _emit_load(out: List[str], pad: str, insn, pc: int, size: int,
               known: tuple, memory: _Memory, unbox: bool) -> bool:
    d, p, off = f"r{insn.dst}", f"r{insn.src}", insn.offset
    slow = f"{d} = _load(state, {p}, {off}, {size}, {pc})"

    def fetch(source: str) -> str:
        if size == 1:
            return f"{d} = {source}"
        return f"{d} = _from_bytes({source}, 'little')"

    base = known[insn.src]
    site = memory.site(insn.src, base, off, size, write=False)
    if site is not None:
        buffer, at = site
        out.append(f"{pad}{d} = {buffer}[{at}]" if size == 1 else
                   f"{pad}{d} = _L{size}({buffer}, {at})[0]")
        return False
    region = memory.pointer_field(base, off, size)
    if region is not None:
        memory.bound.add(region)
        out.append(f"{pad}_q{insn.dst} = 0" if unbox else
                   f"{pad}{d} = Pointer(_R_{region}, 0)")
        return False
    where = "[_o]" if size == 1 else f"[_o:_o + {size}]"
    out.append(f"{pad}if {p}.__class__ is Pointer:")
    out.append(f"{pad} _r = {p}.region")
    out.append(f"{pad} _o = {p}.offset" + (f" + {off}" if off else ""))
    out.append(f"{pad} if _r is ctx_region:")
    out.append(f"{pad}  if _o in _CS{size}:")
    out.append(f"{pad}   {fetch('ctx' + where)}")
    out.append(f"{pad}  else:")
    if size == 8:  # the only size a pointer-kind field has
        out.append(f"{pad}   _t = regions.get(_CP.get(_o))")
        out.append(f"{pad}   if _t is not None:")
        out.append(f"{pad}    {d} = Pointer(_t, 0)")
        out.append(f"{pad}   else:")
        out.append(f"{pad}    {slow}")
    else:
        out.append(f"{pad}   {slow}")
    out.append(f"{pad} elif ((slots and _r is stack_region) or not _r.readable"
               f" or _o < 0 or _o + {size} > len(_r.data)):")
    out.append(f"{pad}  {slow}")
    out.append(f"{pad} else:")
    out.append(f"{pad}  {fetch('_r.data' + where)}")
    out.append(f"{pad}else:")
    out.append(f"{pad} {slow}")
    return True


def _emit_store(out: List[str], pad: str, insn, pc: int, size: int,
                value_reg: Optional[int], known: tuple,
                memory: _Memory) -> bool:
    p, off = f"r{insn.dst}", insn.offset
    mask = (1 << (8 * size)) - 1
    guard = f"{p}.__class__ is Pointer"
    if value_reg is None:
        const = insn.imm & U64
        value = str(const)
        scalar = True
        masked = str(const & mask)
        data = (masked if size == 1 else
                repr((const & mask).to_bytes(size, "little")))
    else:
        value = f"r{value_reg}"
        scalar = type(known[value_reg]) is Scalar
        guard += f" and {value}.__class__ is int"
        masked = value if size == 8 else f"{value} & {mask}"
        if size == 1:
            data = f"{value} & 255"
        elif size == 8:
            data = f"{value}.to_bytes(8, 'little')"
        else:
            data = f"({value} & {mask}).to_bytes({size}, 'little')"
    site = memory.site(insn.dst, known[insn.dst], off, size,
                       write=True) if scalar else None
    if site is not None:
        buffer, at = site
        out.append(f"{pad}{buffer}[{at}] = {masked}" if size == 1 else
                   f"{pad}_S{size}({buffer}, {at}, {masked})")
        return False
    where = "[_o]" if size == 1 else f"[_o:_o + {size}]"
    slow = f"_store(state, {p}, {off}, {size}, {value}, {pc})"
    out.append(f"{pad}if {guard}:")
    out.append(f"{pad} _r = {p}.region")
    out.append(f"{pad} _o = {p}.offset" + (f" + {off}" if off else ""))
    out.append(f"{pad} if _r is ctx_region:")
    out.append(f"{pad}  if _o in _CW{size}:")
    out.append(f"{pad}   ctx{where} = {data}")
    out.append(f"{pad}  else:")
    out.append(f"{pad}   {slow}")
    out.append(f"{pad} elif ((slots and _r is stack_region) or not _r.writable"
               f" or _o < 0 or _o + {size} > len(_r.data)):")
    out.append(f"{pad}  {slow}")
    out.append(f"{pad} else:")
    out.append(f"{pad}  _r.data{where} = {data}")
    out.append(f"{pad}else:")
    out.append(f"{pad} {slow}")
    return True


def _impl_name(helper_id: int) -> str:
    """What the generated code calls a bound helper implementation."""
    return f"_h{helper_id}" if helper_id >= 0 else f"_hm{-helper_id}"


def _emit_call(out: List[str], pad: str, helper_id: int,
               spec: Optional[HelperSpec], pc: int, known: tuple) -> bool:
    slow = f"r0 = _slow_call(state, {helper_id}, {pc}, r1, r2, r3, r4, r5)"
    guard = ""
    if spec is None:  # unknown at compile time: decided when reached
        out.append(f"{pad}{slow}")
    else:
        args = [f"r{reg}" for reg in range(1, 1 + spec.nargs)]
        if not all(type(known[reg]) is Scalar
                   for reg in range(1, 1 + spec.nargs)):
            guard = " and ".join(f"{reg}.__class__ is int" for reg in args)
        inner = pad + " " if guard else pad
        call = f"{_impl_name(helper_id)}({', '.join(['vm'] + args)})"
        if guard:
            out.append(f"{pad}if {guard}:")
        out.append(f"{inner}_calls += 1")
        out.append(f"{inner}_v = {call}")
        out.append(f"{inner}r0 = _v & U64 if _v.__class__ is int else "
                   f"_as_scalar(_v, 'helper return', {pc}) & U64")
        if guard:
            out.append(f"{pad}else:")
            out.append(f"{pad} {slow}")
    # Clobber caller-saved registers like the kernel ABI.
    out.append(f"{pad}r1 = r2 = r3 = r4 = r5 = 0")
    return spec is None or bool(guard)


def _slow_call(state: "_RunState", helper_id: int, pc: int,
               r1: Any, r2: Any, r3: Any, r4: Any, r5: Any) -> Any:
    """A call the compiled code does not make itself; returns r0.

    Taken when the helper id was unknown at compile time or an argument
    failed the call site's class guard: `_call_helper` decides, and words
    the fault, exactly as it does for the interpreter.
    """
    state.regs[1:6] = (r1, r2, r3, r4, r5)
    _call_helper(state, helper_id, pc)
    return state.regs[0]


def _bad_jump(state: "_RunState", target: int, limit: int) -> None:
    """Fault for a jump landing outside the program.

    Reproduces the interpreter's loop-top check order exactly: budget
    first, then the pc bounds fault (only reachable with verification
    disabled — the verifier rejects out-of-range targets).
    """
    if state.executed >= limit:
        raise VmFault("instruction budget exhausted", target)
    raise VmFault(f"pc {target} out of program", target)


def _ctx_tables(layout) -> Dict[str, Any]:
    """Exact-access tables for the generated code, from the layout's index.

    ``_CS<size>`` / ``_CW<size>``: offsets of the readable / writable
    scalar fields of that size; ``_CP``: pointer-field offset -> region.
    """
    tables: Dict[str, Any] = {"_CP": {}}
    for size in MEM_SIZES.values():
        tables[f"_CS{size}"] = set()
        tables[f"_CW{size}"] = set()
    for (offset, size), ctx_field in layout.by_access.items():
        if ctx_field.kind is FieldKind.POINTER:
            tables["_CP"][offset] = ctx_field.region
        else:
            tables[f"_CS{size}"].add(offset)
            if ctx_field.writable:
                tables[f"_CW{size}"].add(offset)
    return tables


def pointer_values(program: Program, facts: Optional[tuple]
                   ) -> Dict[int, str]:
    """The pcs whose instruction makes a proven pointer into a region
    `Vm.run` sizes at entry, by a bare ``pointer +/- scalar`` or a ctx
    pointer-field load, each with that region (none without facts)."""
    memory = _Memory(program.ctx_layout)
    made: Dict[int, str] = {}
    for pc, insn in enumerate(program.instructions):
        known = facts[pc] if facts else None
        if known is None or insn.dst == FP_REG:
            continue
        kind, base, is32, size = _DECODE.get(insn.opcode) or \
            _decode_op(insn.opcode)
        if kind == _K_ALU:
            move = _pointer_move(base, is32, insn, known)
            if move is not None and memory.is_sized(known[move[0]]):
                made[pc] = known[move[0]].region
        elif kind == _K_LDX:
            region = memory.pointer_field(known[insn.src], insn.offset, size)
            if region is not None:
                made[pc] = region
    return made


def _reads_offset(insn, known: tuple, reg: int, region: str,
                  memory: _Memory) -> bool:
    """True if ``insn`` reads the pointer into ``region`` in ``reg`` only
    for its offset: as the base of a proven site, or as the pointer of a
    bare ``pointer +/- scalar``."""
    fact = known[reg]
    if type(fact) is not Ptr or fact.region != region:
        return False
    kind, base, is32, size = _DECODE.get(insn.opcode) or \
        _decode_op(insn.opcode)
    if kind == _K_LDX:
        return memory.proven(fact, insn.offset, size, False) is not None
    if kind == _K_ST or (kind == _K_STX and insn.src != reg
                         and type(known[insn.src]) is Scalar):
        return insn.dst == reg and \
            memory.proven(fact, insn.offset, size, True) is not None
    if kind == _K_ALU:
        move = _pointer_move(base, is32, insn, known)
        return move is not None and move[0] == reg
    return False


def _unboxed(program: Program, proof: Proof, ends: List[int],
             specs: Dict[int, Optional[HelperSpec]],
             memory: _Memory) -> Dict[int, str]:
    """The `pointer_values` the generated code never builds a `Pointer`
    for, keeping the offset local ``_q<reg>`` instead, each with its
    region.  ``ends[pc]`` is where the basic block of ``pc`` ends.

    A value qualifies if every read of it, up to where it is overwritten
    or dies (``proof.dead``, the dead sets the verifier pruned with, which
    hold here because ``proof`` covers the program), is one
    `_reads_offset` accepts and lies in
    its block: it is never compared, copied, spilled, passed to a helper,
    returned, read at a guarded site or live into another block.  Then
    neither the budget tail (which hands every register to the
    interpreter at a block's start) nor a fault (which hands none) can see
    that its `Pointer` was never built.
    """
    insns = program.instructions
    facts, dead = proof.facts, proof.dead

    def offset_only(pc: int, region: str) -> bool:
        reg, end = insns[pc].dst, ends[pc]
        read = True  # by the instruction before ``at``, which falls through
        for at in range(pc + 1, end):
            if reg in dead[at]:
                return True
            insn = insns[at]
            read = reg in registers_read(insn, specs)
            if read:
                if not _reads_offset(insn, facts[at] or _NOTHING_KNOWN, reg,
                                     region, memory):
                    return False
                if insn.dst == reg and not insn.opcode.startswith("st"):
                    return True  # read, then overwritten (a store writes none)
        # Live after the block's last instruction.  One that does not read
        # it passes it on to a successor; one that does (a load, a store,
        # an ALU operation) falls through to ``end``.
        return read and end < len(insns) and reg in dead[end]

    return {pc: region
            for pc, region in pointer_values(program, facts).items()
            if offset_only(pc, region)}


def _generate(program: Program, limit: int,
              specs: Dict[int, Optional[HelperSpec]],
              proof: Optional[Proof]
              ) -> Tuple[str, List[int], frozenset, frozenset]:
    """The source of the program's one function (see `_compile_program`),
    its `_UNRETIRED` table, the pcs whose code keeps run-time guards and
    the pcs whose pointer it never builds (see `_unboxed`).

    ``proof`` is a `Proof` that covers this program with the running Vm's
    helpers, or None: then every site is guarded.
    """
    insns = program.instructions
    count = len(insns)
    facts = proof.facts if proof is not None else (None,) * count
    leaders = {0}
    for pc, insn in enumerate(insns):
        op = insn.opcode
        if op == "ja" or op in _JMP_FN:
            target = pc + 1 + insn.offset
            if 0 <= target < count:
                leaders.add(target)
            if pc + 1 < count:
                leaders.add(pc + 1)
        elif op == "exit" and pc + 1 < count:
            leaders.add(pc + 1)
    starts = sorted(leaders)
    index_of = {start: index for index, start in enumerate(starts)}
    ends = [0] * count
    for start, end in zip(starts, starts[1:] + [count]):
        ends[start:end] = [end] * (end - start)
    memory = _Memory(program.ctx_layout)
    unboxed = _unboxed(program, proof, ends, specs, memory) \
        if proof is not None else {}
    # Charged-but-unretired instructions when the one at a pc faults.
    unretired = [0] * count
    out: List[str] = []
    guarded = set()
    bound = sorted(helper_id for helper_id, spec in specs.items()
                   if spec is not None)
    # The calls the function makes itself are counted in a local, written
    # back where ``n`` is; `_slow_call` counts its own on the state.
    calls = bool(bound)

    def emit_block(k: int, pad: str, leaf_end: int) -> None:
        start = starts[k]
        end = starts[k + 1] if k + 1 < len(starts) else count
        inner = pad + " "
        body: List[str] = []
        memory.held.clear()

        def goto(target: int, at: str) -> None:
            if not 0 <= target < count:
                body.append(f"{at}state.executed = n")
                body.append(f"{at}_bad_jump(state, {target}, {limit})")
                return
            body.append(f"{at}_blk = {index_of[target]}")
            # A forward jump inside the leaf is reached by falling on
            # through the leaf's remaining tests.
            if not k < index_of[target] < leaf_end:
                body.append(f"{at}continue")

        falls = True
        pc = start
        while falls and pc < end:
            insn = insns[pc]
            op = insn.opcode
            kind, base, is32, size = _DECODE.get(op) or _decode_op(op)
            # A pc no explored state reached has no fact: all guards.
            known = facts[pc] or _NOTHING_KNOWN
            keeps = False
            if kind == _K_ALU:
                keeps = _emit_alu(body, inner, insn, pc, base, is32, known,
                                  memory, pc in unboxed)
            elif kind == _K_LDX:
                keeps = _emit_load(body, inner, insn, pc, size, known,
                                   memory, pc in unboxed)
            elif kind == _K_STX:
                keeps = _emit_store(body, inner, insn, pc, size, insn.src,
                                    known, memory)
            elif kind == _K_ST:
                keeps = _emit_store(body, inner, insn, pc, size, None,
                                    known, memory)
            elif kind == _K_CALL:
                keeps = _emit_call(body, inner, insn.imm, specs[insn.imm],
                                   pc, known)
            elif kind == _K_LDDW:
                body.append(f"{inner}r{insn.dst} = {insn.imm & U64}")
            elif kind == _K_JMP:
                test, keeps = _jump_test(insn, pc, op, known)
                body.append(f"{inner}if {test}:")
                goto(pc + 1 + insn.offset, inner + " ")
            elif kind == _K_JA:
                goto(pc + 1 + insn.offset, inner)
                falls = False
            elif kind == _K_EXIT:
                body.append(f"{inner}state.regs[0] = r0")
                body.append(f"{inner}state.executed = n")
                if calls:
                    body.append(f"{inner}state.helper_calls += _calls")
                body.append(f"{inner}return -1")
                falls = False
            else:
                message = f"unknown opcode {op!r}"
                body.append(f"{inner}raise VmFault({message!r}, {pc})")
                falls = False
            if keeps:
                guarded.add(pc)
            # What this pc overwrites no longer holds an offset local.
            if kind in (_K_ALU, _K_LDX, _K_LDDW):
                memory.held.pop(insn.dst, None)
            elif kind == _K_CALL:
                for reg in range(6):
                    memory.held.pop(reg, None)
            if pc in unboxed:
                memory.held[insn.dst] = unboxed[pc]
            pc += 1
        if falls and k + 1 == leaf_end:
            goto(pc, inner)
        size = pc - start
        for offset in range(size):
            unretired[start + offset] = size - 1 - offset
        out.append(f"{pad}if _blk <= {k}:")
        out.append(f"{inner}if n > {limit - size}:")
        out.append(f"{inner} _pc = {start}")
        out.append(f"{inner} break")
        out.append(f"{inner}n += {size}")
        out.extend(body)

    def emit_tree(lo: int, hi: int, pad: str) -> None:
        """Dispatch over leaves [lo, hi) of `_LEAF_BLOCKS` blocks each."""
        if hi - lo == 1:
            leaf_end = min(hi * _LEAF_BLOCKS, len(starts))
            for k in range(lo * _LEAF_BLOCKS, leaf_end):
                emit_block(k, pad, leaf_end)
            return
        mid = (lo + hi) // 2
        out.append(f"{pad}if _blk < {mid * _LEAF_BLOCKS}:")
        emit_tree(lo, mid, pad + " ")
        out.append(f"{pad}else:")
        emit_tree(mid, hi, pad + " ")

    # The dispatch tree first: the prologue binds what its sites use.
    emit_tree(0, -(-len(starts) // _LEAF_BLOCKS), "    ")
    tree, out = out, []
    out.append("def _bind(vm):")
    if bound:
        out.append(" _impls = vm.helpers.impls")
    for helper_id in bound:
        out.append(f" {_impl_name(helper_id)} = _impls[{helper_id}]")
    out.append(" def _run(state):")
    if bound:
        # Not closed over: a Vm that its own function points back to is a
        # cycle, and whatever a helper parked on the Vm (a merge sink)
        # would outlive its world until the next collection.
        out.append("  vm = state.vm")
    out.append(f"  {_ALL_REGS} = state.regs")
    out.append("  ctx = state.ctx")
    out.append("  ctx_region = state.ctx_region")
    out.append("  stack_region = state.stack_region")
    out.append("  slots = state.stack_ptr_slots")
    out.append("  regions = state.regions")
    # What the proven sites address directly: sized at entry by `Vm.run`.
    for name in sorted(memory.bound):
        out.append(f"  _R_{name} = regions[{name!r}]")
        out.append(f"  _D_{name} = _R_{name}.data")
    out.append("  n = state.executed")
    if calls:
        out.append("  _calls = 0")
    out.append("  _blk = 0")
    out.append("  try:")
    out.append("   while True:")
    out.extend(tree)
    out.append("  except VmFault as _fault:")
    # The block was charged whole on entry; put the count back to
    # "instructions actually retired" when the fault names one of them.
    out.append("   _pc = _fault.pc")
    out.append(f"   state.executed = (n - _UNRETIRED[_pc] "
               f"if 0 <= _pc < {count} else n)")
    if calls:
        out.append("   state.helper_calls += _calls")
    out.append("   raise")
    out.append(f"  state.regs[:] = ({_ALL_REGS})")
    out.append("  state.executed = n")
    if calls:
        out.append("  state.helper_calls += _calls")
    out.append("  return _pc")
    out.append(" return _run")
    return "\n".join(out), unretired, frozenset(guarded), frozenset(unboxed)


def _compile_program(program: Program, limit: int,
                     specs: Dict[int, Optional[HelperSpec]],
                     proof: Optional[Proof]) -> Callable:
    """Generate the program's one function; returns its per-Vm binder.

    ``binder(vm)`` closes the function over the helper implementations of
    ``vm.helpers``.  The function runs a fresh `_RunState` and returns
    ``-1`` after ``exit`` (r0 and the count written back), or the pc of the
    first instruction of the block the budget ran out in (every register
    written back) for the interpreter to resume at.  ``binder.guarded``
    is the set of pcs whose code keeps run-time guards, ``binder.unboxed``
    the set of pcs whose pointer it never builds.
    """
    source, unretired, guarded, unboxed = _generate(program, limit, specs,
                                                    proof)
    ns: Dict[str, Any] = {
        "_alu": _alu, "_load": _load, "_store": _store,
        "_jump_compare": _jump_compare, "_slow_call": _slow_call,
        "_as_scalar": _as_scalar, "_bad_jump": _bad_jump,
        "_s64": _s64, "_s32": _s32, "U64": U64, "U32": U32,
        "VmFault": VmFault, "Pointer": Pointer,
        "_from_bytes": int.from_bytes, "_UNRETIRED": unretired,
    }
    for size, packer in _PACKERS.items():
        ns[f"_L{size}"] = packer.unpack_from
        ns[f"_S{size}"] = packer.pack_into
    ns.update(_ctx_tables(program.ctx_layout))
    exec(compile(source, f"<bpf:{program.name}>", "exec"), ns)
    binder = ns["_bind"]
    binder.guarded = guarded
    binder.unboxed = unboxed
    return binder


def _code_inputs(program: Program, helpers: HelperRegistry
                 ) -> Tuple[Dict[int, Optional[HelperSpec]], Optional[Proof]]:
    """What the generated code depends on besides the budget: the
    `HelperSpec` ``helpers`` gives each helper id the program calls (None
    for one it does not know), and the program's proof, or None.

    The proof is spent only if it covers the program as it is now, with
    these helpers: that is compared here, never read from
    ``program.verified``.  A forged flag, an instruction replaced or a
    layout swapped since `verify`, or another registry, gets no facts, so
    the fully guarded code.
    """
    called = sorted({insn.imm for insn in program.instructions
                     if insn.opcode == "call"})
    specs = {helper_id: helpers.specs.get(helper_id)
             for helper_id in called}
    proof = program.proof
    if proof is None or not proof.covers(program, proof_context(helpers)):
        return specs, None
    return specs, proof


def _binder_for(vm: "Vm") -> Callable:
    """The binder of ``vm``'s program (see `_compile_program`), the
    generated code cached on the program.

    One installation's Program is shared by many Vm instances (chain
    executions, remote re-verification); compiling once keeps load cost
    amortised exactly like the kernel's JIT cache.  The key is what the
    code depends on: the budget, the specs of the helpers it calls (by
    value: two installs of one Program may carry different registries) and
    whether a proof was spent; an entry also remembers *which* proof, and
    is replaced if the program has been verified again since.  The
    implementations are bound per Vm.
    """
    program = vm.program
    specs, proof = _code_inputs(program, vm.helpers)
    cache = program.__dict__.setdefault("_block_cache", {})
    key = (vm.max_instructions, tuple(specs.values()), proof is not None)
    binder, spent = cache.get(key, (None, None))
    if binder is None or spent is not proof:
        binder = _compile_program(program, vm.max_instructions, specs, proof)
        cache[key] = (binder, proof)
    return binder
