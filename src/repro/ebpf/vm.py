"""Execution engines for verified programs.

Two modes with identical semantics and identical runtime safety checks:

* ``interp`` — decode-and-dispatch per instruction (the kernel's
  interpreter, and the reference the differential tests compare against).
* ``block`` — the default, standing in for the kernel's JIT: at load time
  the verified program is split into basic blocks and each straight-line
  run is fused into a single generated Python function (instruction
  budget checked once per block, no per-instruction pc bounds check,
  registers bound to a local), with block-to-block dispatch.  The
  ablation benchmark compares the two.

Memory model.  Registers hold either 64-bit unsigned integers or
:class:`Pointer` values tagged with the :class:`Region` they point into.
Every load/store is bounds-checked against its region even though the
verifier already proved safety — the same defence-in-depth the kernel keeps
for helper arguments.  The context struct is special-cased: loads of
pointer-kind fields (per the program's :class:`~repro.ebpf.program.CtxLayout`)
materialise pointers to the buffer regions the hook passed in, and stores are
only allowed to fields the layout marks writable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import VmFault
from repro.perf.profiler import get_default_profiler
from repro.ebpf.helpers import ArgKind, HelperRegistry, RetKind
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
        self._blocks: Optional[_BlockProgram] = None
        self._opclasses: Optional[List[str]] = None  # lazy; profiling only
        if mode == "block":
            self._blocks = _block_program_for(program, max_instructions)

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
        layout = self.program.ctx_layout
        if len(ctx) < layout.size:
            raise VmFault(
                f"ctx too small: {len(ctx)} < layout size {layout.size}"
            )
        regions = regions or {}
        region_objs: Dict[str, Region] = {}
        for ctx_field in layout.fields:
            if ctx_field.kind is FieldKind.POINTER:
                if ctx_field.region not in regions:
                    raise VmFault(f"missing region {ctx_field.region!r}")
                backing = regions[ctx_field.region]
                if len(backing) != ctx_field.region_size:
                    raise VmFault(
                        f"region {ctx_field.region!r} is {len(backing)}B, "
                        f"layout declares {ctx_field.region_size}B"
                    )
                region_objs[ctx_field.region] = Region(
                    ctx_field.region, backing, writable=ctx_field.writable
                )

        state = _RunState(self, ctx, region_objs)
        # The trace lives in the run's state (and travels out in the
        # ExecutionResult); helpers reach it through trace_append.
        self._trace = state.trace_log
        profiler = get_default_profiler()
        if profiler.enabled:
            return self._run_profiled(state, profiler)
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
        """Dispatch fused basic blocks until exit.

        A block function returns the next block index, ``-1`` on exit, or
        ``-2`` when its hoisted budget check sees the budget running out
        inside the block — that tail re-runs per-instruction so the fault
        lands on exactly the same instruction (with the same executed
        count) as the interpreter.
        """
        blocks = self._blocks
        funcs = blocks.funcs
        idx = 0
        nxt = 0
        try:
            while True:
                nxt = funcs[idx](state)
                if nxt < 0:
                    break
                idx = nxt
        except VmFault as fault:
            # The fused fast path charges the whole block up front; put
            # the count back to "instructions actually retired" when the
            # fault names an instruction inside the current block.
            start = blocks.starts[idx]
            size = blocks.sizes[idx]
            if start <= fault.pc < start + size:
                state.executed += fault.pc - start + 1 - size
            raise
        if nxt == -1:
            return state.result()
        # Budget tail (-2): finish per-instruction from the block start.
        return self._run_interp(state, pc=blocks.starts[idx])

    # -- profiled mode ----------------------------------------------------

    def _run_profiled(self, state: "_RunState",
                      profiler) -> ExecutionResult:
        """The interpreter loop with per-opcode-class timing.

        Same semantics and instruction budget as the unprofiled loops;
        only taken when a default profiler is enabled, so neither hot
        path pays for the timing calls.
        """
        classes = self._opclasses
        if classes is None:
            classes = self._opclasses = [
                _opcode_class(insn.opcode)
                for insn in self.program.instructions
            ]
        insns = self.program.instructions
        limit = self.max_instructions
        name = self.program.name
        profiler.push(("vm", f"run.{name}"))
        try:
            pc = 0
            while True:
                if state.executed >= limit:
                    raise VmFault("instruction budget exhausted", pc)
                if not 0 <= pc < len(insns):
                    raise VmFault(f"pc {pc} out of program", pc)
                state.executed += 1
                started = perf_counter_ns()
                next_pc = _step(state, insns[pc], pc)
                profiler.on_opcode(classes[pc], perf_counter_ns() - started)
                if next_pc is None:
                    break
                pc = next_pc
            result = state.result()
        finally:
            wall_ns = profiler.pop()
        profiler.on_program(name, self.mode, state.executed, wall_ns)
        return result


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


def _opcode_class(op: str) -> str:
    """Profiling bucket for an opcode: exit/call/imm/jmp/load/store/alu."""
    if op == "exit":
        return "exit"
    if op == "call":
        return "call"
    if op == "lddw":
        return "imm"
    if op == "ja" or op in _JMP_FN:
        return "jmp"
    if op.startswith("ldx"):
        return "load"
    if op.startswith("stx") or op.startswith("st"):
        return "store"
    return "alu"


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
# Block compilation (the default execution tier)
# ---------------------------------------------------------------------------
#
# At load time the verified program is split into basic blocks (leaders =
# entry, jump targets, and fall-throughs of jumps/exits).  Each block is
# fused into ONE generated Python function:
#
#   * the instruction budget is checked once per block (the per-insn tail
#     only runs when the budget would expire inside the block),
#   * there is no per-instruction pc bounds check — control flow between
#     blocks is by returned block index, and every in-range target was
#     resolved at compile time,
#   * the register file is bound to a local once per block.
#
# Fast paths are guarded with exact ``__class__ is int`` checks; anything
# else (pointers, faults) falls back to the shared `_alu`/`_load`/`_store`/
# `_jump_compare` routines so fault messages and semantics stay identical
# to the interpreter.  Register invariant relied on throughout: integer
# register values are always already reduced to [0, 2**64).

class _BlockProgram:
    """Fused basic blocks of one program at one instruction budget."""

    __slots__ = ("funcs", "starts", "sizes")

    def __init__(self, funcs: List[Callable[["_RunState"], int]],
                 starts: List[int], sizes: List[int]):
        self.funcs = funcs
        self.starts = starts
        self.sizes = sizes


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


def _emit_alu(body: List[str], insn, pc: int, base: str, is32: bool) -> None:
    dst = insn.dst
    if dst == FP_REG:
        body.append(f"raise VmFault('write to frame pointer r10', {pc})")
        return
    d = f"regs[{dst}]"
    if base == "mov":
        if insn.src_is_reg:
            if is32:
                body.append(f"_a = regs[{insn.src}]")
                body.append("if _a.__class__ is int:")
                body.append(f"    {d} = _a & U32")
                body.append("else:")
                body.append(
                    f"    {d} = _alu(state, 'mov', True, 0, _a, {pc})")
            else:
                body.append(f"{d} = regs[{insn.src}]")
        else:
            value = insn.imm & U64
            body.append(f"{d} = {value & U32 if is32 else value}")
        return
    if base == "neg":
        body.append(f"_a = {d}")
        body.append("if _a.__class__ is int:")
        if is32:
            body.append(f"    {d} = (-(_a & U32)) & U32")
        else:
            body.append(f"    {d} = (-_a) & U64")
        body.append("else:")
        body.append(f"    {d} = _alu(state, 'neg', {is32}, _a, 0, {pc})")
        return
    table = _EXPR32 if is32 else _EXPR64
    if insn.src_is_reg:
        body.append(f"_a = {d}")
        body.append(f"_b = regs[{insn.src}]")
        body.append("if _a.__class__ is int and _b.__class__ is int:")
        body.append(f"    {d} = {table[base].format(a='_a', b='_b')}")
        body.append("else:")
        body.append(f"    {d} = _alu(state, {base!r}, {is32}, _a, _b, {pc})")
    else:
        const = insn.imm & U64
        body.append(f"_a = {d}")
        body.append("if _a.__class__ is int:")
        body.append(f"    {d} = {table[base].format(a='_a', b=const)}")
        body.append("else:")
        body.append(
            f"    {d} = _alu(state, {base!r}, {is32}, _a, {const}, {pc})")


def _emit_jump(body: List[str], insn, pc: int, op: str,
               taken: str, fall: str) -> None:
    if insn.src_is_reg:
        body.append(f"_a = regs[{insn.dst}]")
        body.append(f"_b = regs[{insn.src}]")
        body.append("if _a.__class__ is int and _b.__class__ is int:")
        body.append(f"    if {_COND[op].format(a='_a', b='_b')}:")
        body.append(f"        {taken}")
        body.append(f"    {fall}")
        body.append(f"if _jump_compare({op!r}, _a, _b, {pc}):")
    else:
        const = insn.imm & U64
        body.append(f"_a = regs[{insn.dst}]")
        body.append("if _a.__class__ is int:")
        body.append(f"    if {_COND[op].format(a='_a', b=const)}:")
        body.append(f"        {taken}")
        body.append(f"    {fall}")
        body.append(f"if _jump_compare({op!r}, _a, {const}, {pc}):")
    body.append(f"    {taken}")
    body.append(fall)


def _emit_load(body: List[str], insn, pc: int, size: int) -> None:
    dst, src, off = insn.dst, insn.src, insn.offset
    slow = f"regs[{dst}] = _load(state, _p, {off}, {size}, {pc})"
    body.append(f"_p = regs[{src}]")
    body.append("if _p.__class__ is Pointer:")
    body.append("    _r = _p.region")
    body.append(f"    _o = _p.offset + {off}")
    body.append("    if (_r is state.ctx_region"
                " or (_r is state.stack_region and state.stack_ptr_slots)"
                " or not _r.readable"
                f" or _o < 0 or _o + {size} > len(_r.data)):")
    body.append(f"        {slow}")
    body.append("    else:")
    if size == 1:
        body.append(f"        regs[{dst}] = _r.data[_o]")
    else:
        body.append(f"        regs[{dst}] = "
                    f"_from_bytes(_r.data[_o:_o + {size}], 'little')")
    body.append("else:")
    body.append(f"    {slow}")


def _emit_store(body: List[str], insn, pc: int, size: int,
                value_reg: Optional[int]) -> None:
    off = insn.offset
    mask = (1 << (8 * size)) - 1
    if value_reg is None:
        const = insn.imm & U64
        value = str(const)
        guard = "if _p.__class__ is Pointer:"
        fast = (f"_r.data[_o] = {const & mask}" if size == 1 else
                f"_r.data[_o:_o + {size}] = {(const & mask).to_bytes(size, 'little')!r}")
    else:
        value = "_v"
        body.append(f"_v = regs[{value_reg}]")
        guard = "if _p.__class__ is Pointer and _v.__class__ is int:"
        fast = (f"_r.data[_o] = _v & 255" if size == 1 else
                f"_r.data[_o:_o + {size}] = "
                f"(_v & {mask}).to_bytes({size}, 'little')")
    slow = f"_store(state, _p, {off}, {size}, {value}, {pc})"
    body.append(f"_p = regs[{insn.dst}]")
    body.append(guard)
    body.append("    _r = _p.region")
    body.append(f"    _o = _p.offset + {off}")
    body.append("    if (_r is state.ctx_region or _r is state.stack_region"
                " or not _r.writable"
                f" or _o < 0 or _o + {size} > len(_r.data)):")
    body.append(f"        {slow}")
    body.append("    else:")
    body.append(f"        {fast}")
    body.append("else:")
    body.append(f"    {slow}")


def _bad_jump(state: "_RunState", target: int, limit: int) -> None:
    """Fault for a jump landing outside the program.

    Reproduces the interpreter's loop-top check order exactly: budget
    first, then the pc bounds fault (only reachable with verification
    disabled — the verifier rejects out-of-range targets).
    """
    if state.executed >= limit:
        raise VmFault("instruction budget exhausted", target)
    raise VmFault(f"pc {target} out of program", target)


def _branch_stmt(target: int, count: int,
                 index_of: Dict[int, int], limit: int) -> str:
    """Single-line statement for a taken jump to ``target``."""
    if 0 <= target < count:
        return f"return {index_of[target]}"
    return f"return _bad_jump(state, {target}, {limit})"


def _fuse_block(program: Program, start: int, end: int,
                index_of: Dict[int, int],
                limit: int) -> Tuple[Callable[["_RunState"], int], int]:
    """Compile instructions [start, end) into one block function."""
    insns = program.instructions
    count = len(insns)
    ns: Dict[str, Any] = {
        "_alu": _alu, "_load": _load, "_store": _store,
        "_call_helper": _call_helper, "_jump_compare": _jump_compare,
        "_s64": _s64, "_s32": _s32, "U64": U64, "U32": U32,
        "VmFault": VmFault, "Pointer": Pointer, "_bad_jump": _bad_jump,
        "_from_bytes": int.from_bytes, "len": len,
    }
    body: List[str] = []
    size = 0
    terminated = False
    pc = start
    while pc < end:
        insn = insns[pc]
        op = insn.opcode
        info = _DECODE.get(op) or _decode_op(op)
        kind = info[0]
        size += 1
        if kind == _K_EXIT:
            body.append("return -1")
            terminated = True
            break
        if kind == _K_JA:
            body.append(_branch_stmt(pc + 1 + insn.offset, count,
                                     index_of, limit))
            terminated = True
            break
        if kind == _K_JMP:
            taken = _branch_stmt(pc + 1 + insn.offset, count,
                                 index_of, limit)
            _emit_jump(body, insn, pc, op, taken,
                       f"return {index_of[pc + 1]}")
            terminated = True
            break
        if kind == _K_ALU:
            _emit_alu(body, insn, pc, info[1], info[2])
        elif kind == _K_LDX:
            _emit_load(body, insn, pc, info[3])
        elif kind == _K_STX:
            _emit_store(body, insn, pc, info[3], insn.src)
        elif kind == _K_ST:
            _emit_store(body, insn, pc, info[3], None)
        elif kind == _K_CALL:
            body.append(f"_call_helper(state, {insn.imm}, {pc})")
        elif kind == _K_LDDW:
            body.append(f"regs[{insn.dst}] = {insn.imm & U64}")
        else:
            message = f"unknown opcode {op!r}"
            body.append(f"raise VmFault({message!r}, {pc})")
            terminated = True
            break
        pc += 1
    if not terminated:
        body.append(f"return {index_of[pc]}")
    lines = ["def _block(state):",
             f"    executed = state.executed + {size}",
             f"    if executed > {limit}:",
             "        return -2",
             "    state.executed = executed",
             "    regs = state.regs"]
    for stmt in body:
        for line in stmt.split("\n"):
            lines.append("    " + line)
    source = "\n".join(lines)
    code = compile(source, f"<bpf:{program.name}:block@{start}>", "exec")
    exec(code, ns)
    return ns["_block"], size


def _compile_blocks(program: Program, limit: int) -> _BlockProgram:
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
    funcs: List[Callable[["_RunState"], int]] = []
    sizes: List[int] = []
    for which, start in enumerate(starts):
        end = starts[which + 1] if which + 1 < len(starts) else count
        func, size = _fuse_block(program, start, end, index_of, limit)
        funcs.append(func)
        sizes.append(size)
    return _BlockProgram(funcs, starts, sizes)


def _block_program_for(program: Program, limit: int) -> _BlockProgram:
    """Blocks for ``program`` at budget ``limit``, cached on the program.

    One installation's Program is shared by many Vm instances (chain
    executions, remote re-verification); compiling once per (program,
    budget) keeps load cost amortised exactly like the kernel's JIT cache.
    """
    cache = getattr(program, "_block_cache", None)
    if cache is None:
        cache = {}
        try:
            program._block_cache = cache
        except AttributeError:  # frozen dataclass: compile uncached
            return _compile_blocks(program, limit)
    blocks = cache.get(limit)
    if blocks is None:
        blocks = cache[limit] = _compile_blocks(program, limit)
    return blocks
