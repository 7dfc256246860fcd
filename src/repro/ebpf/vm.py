"""Execution engines for verified programs.

Two modes with identical semantics and identical runtime safety checks:

* ``interp`` — decode-and-dispatch per instruction (the kernel's
  interpreter, and the reference the differential tests compare against).
* ``block`` — the default, standing in for the kernel's JIT: at load time
  the whole program is compiled into ONE generated Python function.
  Registers and the retired-instruction count are locals, basic blocks
  hand over to each other inside the function (instruction budget checked
  once per block, no per-instruction pc bounds check), each helper call
  site is specialised by the `HelperSpec` known at compile time, and
  context accesses go through exact ``(offset, size)`` tables built from
  the program's layout.  The ablation benchmark compares the two.

Memory model.  Registers hold either 64-bit unsigned integers or
:class:`Pointer` values tagged with the :class:`Region` they point into.
Every load/store is bounds-checked against its region even though the
verifier already proved safety — the same defence-in-depth the kernel keeps
for helper arguments, and both modes keep all of it.  The context struct is
special-cased: loads of pointer-kind fields (per the program's
:class:`~repro.ebpf.program.CtxLayout`) materialise pointers to the buffer
regions the hook passed in, and stores are only allowed to fields the
layout marks writable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import VmFault
from repro.perf.profiler import get_default_profiler
from repro.ebpf.helpers import ArgKind, HelperRegistry, HelperSpec, RetKind
from repro.ebpf.isa import FP_REG, MEM_SIZES, STACK_SIZE
from repro.ebpf.maps import BpfMap
from repro.ebpf.program import FieldKind, Program

__all__ = ["ExecutionResult", "Pointer", "Region", "Vm", "VmEnvironment"]

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

    def __len__(self) -> int:
        return len(self.data)

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


class VmEnvironment:
    """Maps, helpers, and a clock shared by program runs."""

    def __init__(self, helpers: HelperRegistry,
                 maps: Optional[Dict[int, BpfMap]] = None,
                 clock: Optional[Callable[[], int]] = None):
        self.helpers = helpers
        self.maps: Dict[int, BpfMap] = dict(maps or {})
        self._clock = clock or (lambda: 0)

    def map(self, map_id: int) -> BpfMap:
        if map_id not in self.maps:
            raise VmFault(f"no map with id {map_id}")
        return self.maps[map_id]

    def now(self) -> int:
        return self._clock()


@dataclass
class ExecutionResult:
    """Outcome of one program run."""

    return_value: int
    instructions: int
    trace_log: List[int] = field(default_factory=list)
    helper_calls: int = 0


class Vm:
    """Executes a verified :class:`Program` against an environment."""

    def __init__(self, program: Program, env: VmEnvironment,
                 mode: str = "interp", max_instructions: int = 1_000_000,
                 require_verified: bool = True):
        if mode not in ("interp", "block"):
            raise VmFault(f"unknown execution mode {mode!r}")
        if require_verified and not program.verified:
            raise VmFault(
                f"program {program.name!r} was not accepted by the verifier"
            )
        self.program = program
        self.env = env
        self.mode = mode
        self.max_instructions = max_instructions
        self._trace: List[int] = []
        # What every run needs from the layout, resolved once.
        layout = program.ctx_layout
        self._ctx_size = layout.size
        self._pointer_fields = tuple(
            (ctx_field.region, ctx_field.region_size, ctx_field.writable)
            for ctx_field in layout.fields
            if ctx_field.kind is FieldKind.POINTER)
        self._compiled: Optional[Callable[["_RunState"], int]] = None
        if mode == "block":
            self._compiled = _compiled_for(self)

    def trace_append(self, value: int) -> None:
        """Append to the *current run's* trace (helper support)."""
        self._trace.append(value)

    # ------------------------------------------------------------------
    # Memory access (also used by helper implementations)
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

    def map_value_pointer(self, map_id: int, value: bytearray) -> Pointer:
        """Wrap a live map value buffer as a pointer (helper support)."""
        bpf_map = self.env.map(map_id)
        return Pointer(Region(f"map_value:{bpf_map.name}", value), 0)

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

        state = _RunState(self, ctx, region_objs)
        # The trace lives in the run's state (and travels out in the
        # ExecutionResult); helpers reach it through trace_append.
        self._trace = state.trace_log
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
        "stack_ptr_slots", "regions", "executed", "trace_log", "helper_calls",
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
        self.trace_log: List[int] = []
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
            trace_log=self.trace_log,
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
            # Pointer vs scalar: a live pointer never equals NULL (or any
            # scalar) — the interesting case is the post-map-lookup null
            # check, where NULL is the plain integer 0 and takes the other
            # branch.
            same = False
        return same if op == "jeq" else not same
    return _JMP_FN[op](a & U64, b & U64)


def _call_helper(state: _RunState, helper_id: int, pc: int) -> None:
    vm = state.vm
    spec = vm.env.helpers.spec(helper_id)
    impl = vm.env.helpers.impl(helper_id)
    args = []
    for index, kind in enumerate(spec.args):
        value = state.regs[1 + index]
        if kind in (ArgKind.SCALAR, ArgKind.CONST, ArgKind.MAP_ID, ArgKind.SIZE):
            args.append(_as_scalar(value, f"helper arg {index + 1}", pc) & U64)
        else:
            if not isinstance(value, Pointer):
                raise VmFault(
                    f"helper {spec.name!r} arg {index + 1} expects pointer", pc
                )
            args.append(value)
    state.helper_calls += 1
    result = impl(vm, *args)
    # Clobber caller-saved registers like the kernel ABI.
    for reg in range(1, 6):
        state.regs[reg] = 0
    if spec.ret is RetKind.VOID:
        state.regs[0] = 0
    elif spec.ret is RetKind.MAP_VALUE_OR_NULL:
        state.regs[0] = result if isinstance(result, Pointer) else 0
    else:
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
#     or whose guard fails, goes through `_call_helper`;
#   * context accesses are looked up in exact per-size offset tables built
#     from the program's `CtxLayout`; ``pointer +/- scalar`` is inline.
#
# Fast paths are guarded with exact ``__class__ is int`` / ``is Pointer``
# checks and keep every region check (readable/writable, bounds against
# ``len(region.data)``, ctx field writability, spilled-pointer rules);
# whatever a guard turns away falls back to the shared `_alu`/`_load`/
# `_store`/`_jump_compare`/`_call_helper` routines, which is what keeps
# fault messages and semantics identical to the interpreter.  Register
# invariant relied on throughout: integer register values are always
# already reduced to [0, 2**64).

#: Consecutive blocks per leaf of the dispatch tree (linear inside a leaf).
_LEAF_BLOCKS = 8

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

_SCALAR_ARGS = (ArgKind.SCALAR, ArgKind.CONST, ArgKind.MAP_ID, ArgKind.SIZE)
_ALL_REGS = ", ".join(f"r{reg}" for reg in range(11))


def _emit_alu(out: List[str], pad: str, insn, pc: int, base: str,
              is32: bool) -> None:
    if insn.dst == FP_REG:
        out.append(f"{pad}raise VmFault('write to frame pointer r10', {pc})")
        return
    d = f"r{insn.dst}"
    if base == "mov":
        if not insn.src_is_reg:
            value = insn.imm & U64
            out.append(f"{pad}{d} = {value & U32 if is32 else value}")
        elif is32:
            s = f"r{insn.src}"
            out.append(f"{pad}{d} = {s} & U32 if {s}.__class__ is int else "
                       f"_alu(state, 'mov', True, 0, {s}, {pc})")
        else:
            out.append(f"{pad}{d} = r{insn.src}")
        return
    if base == "neg":
        fast = f"(-({d} & U32)) & U32" if is32 else f"(-{d}) & U64"
        out.append(f"{pad}{d} = {fast} if {d}.__class__ is int else "
                   f"_alu(state, 'neg', {is32}, {d}, 0, {pc})")
        return
    table = _EXPR32 if is32 else _EXPR64
    # 64-bit add/sub also move a pointer by a scalar inline.
    moves = not is32 and base in ("add", "sub")
    if insn.src_is_reg:
        s = f"r{insn.src}"
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
        s = str(insn.imm & U64)
        out.append(f"{pad}if {d}.__class__ is int:")
        out.append(f"{pad} {d} = {table[base].format(a=d, b=s)}")
        if moves:
            delta = _s64(insn.imm & U64)
            out.append(f"{pad}elif {d}.__class__ is Pointer:")
            out.append(f"{pad} {d} = Pointer({d}.region, {d}.offset + "
                       f"({delta if base == 'add' else -delta}))")
    out.append(f"{pad}else:")
    out.append(f"{pad} {d} = _alu(state, {base!r}, {is32}, {d}, {s}, {pc})")


def _jump_test(insn, pc: int, op: str) -> str:
    """The branch condition of a conditional jump, as one expression."""
    d = f"r{insn.dst}"
    if insn.src_is_reg:
        s = f"r{insn.src}"
        guard = f"{d}.__class__ is int and {s}.__class__ is int"
    else:
        s = str(insn.imm & U64)
        guard = f"{d}.__class__ is int"
    return (f"({_COND[op].format(a=d, b=s)}) if {guard} "
            f"else _jump_compare({op!r}, {d}, {s}, {pc})")


def _emit_load(out: List[str], pad: str, insn, pc: int, size: int) -> None:
    d, p, off = f"r{insn.dst}", f"r{insn.src}", insn.offset
    slow = f"{d} = _load(state, {p}, {off}, {size}, {pc})"

    def fetch(data: str) -> str:
        if size == 1:
            return f"{d} = {data}[_o]"
        return f"{d} = _from_bytes({data}[_o:_o + {size}], 'little')"

    out.append(f"{pad}if {p}.__class__ is Pointer:")
    out.append(f"{pad} _r = {p}.region")
    out.append(f"{pad} _o = {p}.offset" + (f" + {off}" if off else ""))
    out.append(f"{pad} if _r is ctx_region:")
    out.append(f"{pad}  if _o in _CS{size}:")
    out.append(f"{pad}   {fetch('ctx')}")
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
    out.append(f"{pad}  {fetch('_r.data')}")
    out.append(f"{pad}else:")
    out.append(f"{pad} {slow}")


def _emit_store(out: List[str], pad: str, insn, pc: int, size: int,
                value_reg: Optional[int]) -> None:
    p, off = f"r{insn.dst}", insn.offset
    mask = (1 << (8 * size)) - 1
    guard = f"{p}.__class__ is Pointer"
    if value_reg is None:
        const = insn.imm & U64
        value = str(const)
        data = (str(const & mask) if size == 1 else
                repr((const & mask).to_bytes(size, "little")))
    else:
        value = f"r{value_reg}"
        guard += f" and {value}.__class__ is int"
        if size == 1:
            data = f"{value} & 255"
        elif size == 8:
            data = f"{value}.to_bytes(8, 'little')"
        else:
            data = f"({value} & {mask}).to_bytes({size}, 'little')"
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


def _impl_name(helper_id: int) -> str:
    """What the generated code calls a bound helper implementation."""
    return f"_h{helper_id}" if helper_id >= 0 else f"_hm{-helper_id}"


def _emit_call(out: List[str], pad: str, helper_id: int,
               spec: Optional[HelperSpec], pc: int) -> None:
    slow = f"r0 = _slow_call(state, {helper_id}, {pc}, r1, r2, r3, r4, r5)"
    if spec is None:  # unknown at compile time: decided when reached
        out.append(f"{pad}{slow}")
    else:
        args = [f"r{index + 1}" for index in range(len(spec.args))]
        guard = " and ".join(
            f"{reg}.__class__ is "
            f"{'int' if kind in _SCALAR_ARGS else 'Pointer'}"
            for reg, kind in zip(args, spec.args))
        inner = pad + " " if guard else pad
        call = f"{_impl_name(helper_id)}({', '.join(['vm'] + args)})"
        if guard:
            out.append(f"{pad}if {guard}:")
        out.append(f"{inner}state.helper_calls += 1")
        if spec.ret is RetKind.VOID:
            out.append(f"{inner}{call}")
            out.append(f"{inner}r0 = 0")
        elif spec.ret is RetKind.MAP_VALUE_OR_NULL:
            out.append(f"{inner}_v = {call}")
            out.append(f"{inner}r0 = _v if isinstance(_v, Pointer) else 0")
        else:
            out.append(f"{inner}_v = {call}")
            out.append(f"{inner}r0 = _v & U64 if _v.__class__ is int else "
                       f"_as_scalar(_v, 'helper return', {pc}) & U64")
        if guard:
            out.append(f"{pad}else:")
            out.append(f"{pad} {slow}")
    # Clobber caller-saved registers like the kernel ABI.
    out.append(f"{pad}r1 = r2 = r3 = r4 = r5 = 0")


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


def _compile_program(program: Program, limit: int,
                     specs: Dict[int, Optional[HelperSpec]]) -> Callable:
    """Generate the program's one function; returns its per-Vm binder.

    ``binder(vm)`` closes the function over the helper implementations of
    ``vm.env.helpers``.  The function runs a fresh `_RunState` and returns
    ``-1`` after ``exit`` (r0 and the count written back), or the pc of the
    first instruction of the block the budget ran out in (every register
    written back) for the interpreter to resume at.
    """
    insns = program.instructions
    count = len(insns)
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
    # Charged-but-unretired instructions when the one at a pc faults.
    unretired = [0] * count
    out: List[str] = []

    def emit_block(k: int, pad: str, leaf_end: int) -> None:
        start = starts[k]
        end = starts[k + 1] if k + 1 < len(starts) else count
        inner = pad + " "
        body: List[str] = []

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
            if kind == _K_ALU:
                _emit_alu(body, inner, insn, pc, base, is32)
            elif kind == _K_LDX:
                _emit_load(body, inner, insn, pc, size)
            elif kind == _K_STX:
                _emit_store(body, inner, insn, pc, size, insn.src)
            elif kind == _K_ST:
                _emit_store(body, inner, insn, pc, size, None)
            elif kind == _K_CALL:
                _emit_call(body, inner, insn.imm, specs[insn.imm], pc)
            elif kind == _K_LDDW:
                body.append(f"{inner}r{insn.dst} = {insn.imm & U64}")
            elif kind == _K_JMP:
                body.append(f"{inner}if {_jump_test(insn, pc, op)}:")
                goto(pc + 1 + insn.offset, inner + " ")
            elif kind == _K_JA:
                goto(pc + 1 + insn.offset, inner)
                falls = False
            elif kind == _K_EXIT:
                body.append(f"{inner}state.regs[0] = r0")
                body.append(f"{inner}state.executed = n")
                body.append(f"{inner}return -1")
                falls = False
            else:
                message = f"unknown opcode {op!r}"
                body.append(f"{inner}raise VmFault({message!r}, {pc})")
                falls = False
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

    out.append("def _bind(vm):")
    bound = sorted(helper_id for helper_id, spec in specs.items()
                   if spec is not None)
    if bound:
        out.append(" _impls = vm.env.helpers.impls")
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
    out.append("  n = state.executed")
    out.append("  _blk = 0")
    out.append("  try:")
    out.append("   while True:")
    emit_tree(0, -(-len(starts) // _LEAF_BLOCKS), "    ")
    out.append("  except VmFault as _fault:")
    # The block was charged whole on entry; put the count back to
    # "instructions actually retired" when the fault names one of them.
    out.append("   _pc = _fault.pc")
    out.append(f"   state.executed = (n - _UNRETIRED[_pc] "
               f"if 0 <= _pc < {count} else n)")
    out.append("   raise")
    out.append(f"  state.regs[:] = ({_ALL_REGS})")
    out.append("  state.executed = n")
    out.append("  return _pc")
    out.append(" return _run")

    ns: Dict[str, Any] = {
        "_alu": _alu, "_load": _load, "_store": _store,
        "_jump_compare": _jump_compare, "_slow_call": _slow_call,
        "_as_scalar": _as_scalar, "_bad_jump": _bad_jump,
        "_s64": _s64, "_s32": _s32, "U64": U64, "U32": U32,
        "VmFault": VmFault, "Pointer": Pointer,
        "_from_bytes": int.from_bytes, "_UNRETIRED": unretired,
    }
    ns.update(_ctx_tables(program.ctx_layout))
    exec(compile("\n".join(out), f"<bpf:{program.name}>", "exec"), ns)
    return ns["_bind"]


def _compiled_for(vm: "Vm") -> Callable[["_RunState"], int]:
    """``vm``'s program as one function, the generated code cached on it.

    One installation's Program is shared by many Vm instances (chain
    executions, remote re-verification); compiling once keeps load cost
    amortised exactly like the kernel's JIT cache.  The generated code
    depends on the budget and on the `HelperSpec` of every helper id the
    program calls (by value: two installs of one Program may carry
    different registries), so both are the cache key; the implementations
    are bound per Vm.
    """
    program = vm.program
    helpers = vm.env.helpers
    called = sorted({insn.imm for insn in program.instructions
                     if insn.opcode == "call"})
    specs = tuple(helpers.specs.get(helper_id) for helper_id in called)
    cache = program.__dict__.setdefault("_block_cache", {})
    key = (vm.max_instructions, specs)
    binder = cache.get(key)
    if binder is None:
        binder = cache[key] = _compile_program(
            program, vm.max_instructions, dict(zip(called, specs)))
    return binder(vm)
