"""Static verifier: abstract interpretation over register/stack state.

Before a program may be attached to a storage hook it must pass this
verifier, which proves — without running the program on real data — that:

* no register is read before it is written;
* every load and store lands inside a region the program legitimately holds
  a pointer into (context, stack, buffers reachable from the context, map
  values), with statically bounded offsets;
* maybe-null pointers returned by ``map_lookup`` are null-checked before any
  dereference;
* helper calls match their declared signatures, including proving that
  ``(ptr, size)`` argument pairs stay in bounds for the *maximum* possible
  size value;
* the program terminates: all paths reach ``exit`` within a state budget, so
  a loop is only accepted if the analysis can unroll it to completion
  (mirroring the kernel's 1M-instruction verification cap, which the paper
  cites as the mechanism preventing unbounded I/O loops).

The scalar domain tracks unsigned ranges ``[umin, umax]``; branch outcomes
refine ranges along each edge, which is what lets bounded loops such as a
B-tree node's bounded binary search verify while an unbounded walk is
rejected by budget exhaustion.

Verification runs at every ``install``, on every target a program is
pushed to, so its cost is part of the system.  It is linear in the number
of states explored, and the prune and infinite-loop rules run only at
prune points (pc 0 and every jump target), on the registers live there
(``docs/verifier.md`` has the domain, both rules, why the candidate index
is exact, why clearing dead registers keeps the proof sound, and measured
times).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import VerifierError
from repro.ebpf.helpers import ArgKind, HelperRegistry, RetKind
from repro.ebpf.isa import FP_REG, Instruction, MEM_SIZES, STACK_SIZE
from repro.ebpf.program import CtxField, FieldKind, Program

__all__ = ["Proof", "Ptr", "Scalar", "VerifierStats", "Verifier",
           "dead_registers", "proof_context", "registers_read", "verify"]

U64_MAX = 2**64 - 1
U32_MAX = 2**32 - 1

# Offsets a pointer may be adjusted by before we give up precision.
_OFF_LIMIT = 1 << 29


@dataclass(frozen=True)
class Scalar:
    """An integer with an unsigned range (constant when umin == umax)."""

    umin: int = 0
    umax: int = U64_MAX

    @property
    def const(self) -> Optional[int]:
        return self.umin if self.umin == self.umax else None

    def __repr__(self) -> str:
        if self.const is not None:
            return f"Scalar({self.umin})"
        return f"Scalar([{self.umin}, {self.umax}])"


UNKNOWN = Scalar()


@dataclass(frozen=True)
class Ptr:
    """A pointer into a statically sized region, with an offset range."""

    region: str
    size: int
    off_min: int = 0
    off_max: int = 0
    maybe_null: bool = False

    def __repr__(self) -> str:
        null = "?null" if self.maybe_null else ""
        return f"Ptr({self.region}+[{self.off_min},{self.off_max}]{null})"


class NotInit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotInit"


NOT_INIT = NotInit()

_ALU_BASES = frozenset(("add", "sub", "mul", "div", "mod", "or", "and", "xor",
                        "lsh", "rsh", "arsh", "mov", "neg"))

# Stack slot contents: ("ptr", Ptr) or ("bytes", frozenset of initialised
# byte offsets within the slot).
_SLOT_COUNT = STACK_SIZE // 8


class State:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "stack")

    def __init__(self, regs, stack):
        self.regs = regs          # tuple of 11 abstract values
        self.stack = stack        # dict slot_index -> ("ptr", Ptr)|("bytes", frozenset)

    def with_reg(self, index: int, value) -> "State":
        regs = list(self.regs)
        regs[index] = value
        return State(tuple(regs), self.stack)

    def with_stack(self, stack) -> "State":
        return State(self.regs, stack)


def _initial_state(ctx_size: int) -> State:
    regs = [NOT_INIT] * 11
    regs[1] = Ptr("ctx", ctx_size)
    regs[FP_REG] = Ptr("stack", STACK_SIZE, STACK_SIZE, STACK_SIZE)
    return State(tuple(regs), {})


@dataclass(frozen=True)
class Proof:
    """What one successful verification established, and what it holds for.

    ``facts[pc]`` is None for an instruction no explored state reached;
    otherwise it has one entry per register, holding for each register
    *that instruction reads* the join of its abstract value over every
    state explored there, or None where nothing is known:

    * ``Scalar(umin, umax)``: the register is an integer in that range;
    * ``Ptr(region, size, off_min, off_max)``, never ``maybe_null``: it is
      a pointer into that region, of that size, at an offset in range.

    The facts hold for a run only of exactly these ``instructions``, over
    a context of exactly this ``layout``, in an environment whose
    ``proof_context`` equals ``context``; ``covers`` is that comparison,
    and whoever spends a fact makes it first (`repro.ebpf.vm` does, at
    compile time).  A proof holds no `State`.
    """

    instructions: Tuple[Instruction, ...]
    layout: Tuple[CtxField, ...]
    context: tuple
    facts: Tuple[Optional[tuple], ...]

    def covers(self, program: Program, context: tuple) -> bool:
        """True if ``program``, as it is now, run under ``context`` (a
        `proof_context`), is what this proof was made for and against."""
        return (self.instructions == tuple(program.instructions)
                and self.layout == tuple(program.ctx_layout.fields)
                and self.context == context)


def _join(values):
    """The least fact covering every abstract value in ``values``: the
    range hull of scalars, the offset hull of non-null pointers into one
    region of one size, and None (nothing known) for anything else: an
    uninitialised register, a pointer that may be NULL, mixed classes."""
    kinds = set(map(type, values))
    if kinds == {Scalar}:
        return Scalar(min(map(_UMIN, values)), max(map(_UMAX, values)))
    if kinds != {Ptr}:
        return None
    first = values[0]
    if any(value.maybe_null or value.region != first.region
           or value.size != first.size for value in values):
        return None
    return Ptr(first.region, first.size, min(map(_OFF_MIN, values)),
               max(map(_OFF_MAX, values)))


_UMIN, _UMAX = attrgetter("umin"), attrgetter("umax")
_OFF_MIN, _OFF_MAX = attrgetter("off_min"), attrgetter("off_max")


def registers_read(insn: Instruction, specs: Mapping[int, object]) -> tuple:
    """The registers whose values decide what ``insn`` does: a load's base,
    a store's base and stored register, both operands of an ALU operation
    or a branch, the arguments the called helper's spec (in ``specs``, by
    helper id) names."""
    op = insn.opcode
    if op == "call":
        spec = specs.get(insn.imm)
        return tuple(range(1, 1 + len(spec.args))) if spec else ()
    if op in ("exit", "ja", "lddw"):
        return ()
    if op.startswith("ldx"):
        return (insn.src,)
    if op.startswith("stx"):
        return (insn.dst, insn.src)
    if op.startswith("st"):
        return (insn.dst,)
    base = op[:-2] if op.endswith("32") else op
    if base == "mov":
        return (insn.src,) if insn.src_is_reg else ()
    return (insn.dst, insn.src) if insn.src_is_reg else (insn.dst,)


def dead_registers(instructions, specs: Mapping[int, object]) -> List[tuple]:
    """Per pc, the registers no path from there reads before writing.

    One backward fixpoint over the control-flow graph.  An instruction
    uses what `registers_read` names, plus r0 at ``exit`` (the exit
    check reads it); a ``call`` defines r0-r5, an ALU operation, a load
    and ``lddw`` define ``dst``, and stores and jumps define nothing.
    r10 is never dead.
    """
    count = len(instructions)
    uses, defines, successors = [], [], []
    for pc, insn in enumerate(instructions):
        op = insn.opcode
        used = 0
        for reg in registers_read(insn, specs):
            used |= 1 << reg
        base = op[:-2] if op.endswith("32") else op
        if op == "call":
            defined = 0b111111
        elif op == "lddw" or op.startswith("ldx") or base in _ALU_BASES:
            defined = 1 << insn.dst
        else:
            defined = 0
        target = pc + 1 + insn.offset
        if op == "exit":
            used |= 1
            following = ()
        elif op == "ja":
            following = (target,)
        elif op in _JMP_REFINERS or op == "jset":
            following = (pc + 1, target)
        else:
            following = (pc + 1,)
        uses.append(used)
        defines.append(defined)
        successors.append([next_pc for next_pc in following
                           if 0 <= next_pc < count])
    live = [0] * count
    changed = True
    while changed:
        changed = False
        for pc in reversed(range(count)):
            out = 0
            for next_pc in successors[pc]:
                out |= live[next_pc]
            live_in = uses[pc] | (out & ~defines[pc])
            if live_in != live[pc]:
                live[pc] = live_in
                changed = True
    return [tuple(reg for reg in range(FP_REG) if not mask >> reg & 1)
            for mask in live]


def _without(state: State, dead: tuple) -> State:
    """``state`` with the registers in ``dead`` cleared to `NOT_INIT`, the
    one object, so `_subsumes` skips them by identity."""
    regs = list(state.regs)
    for reg in dead:
        regs[reg] = NOT_INIT
    return State(tuple(regs), state.stack)


@dataclass
class VerifierStats:
    """Bookkeeping returned on success."""

    states_explored: int = 0
    max_states_per_insn: int = 0
    #: Calls of the state-subsumption test: what the loop and prune checks
    #: cost on top of the transfer function.
    subsumption_checks: int = 0


class _Table:
    """States at one prune point, indexed by the scalar in the
    discriminator register.

    ``old`` can subsume ``new`` only if every register of ``old`` covers
    the same register of ``new``.  ``candidates`` yields the states whose
    discriminator covers the new state's; every state it skips would have
    failed ``_subsumes`` on that register.

    * A constant ``Scalar(c)`` covers nothing but ``c``, so the states
      holding a constant are bucketed by it: one hash lookup.  This is the
      counter of an unrolled loop.
    * A range covers a scalar if ``old.umin <= new.umin`` and ``old.umax >=
      new.umax``.  The states holding a range are kept sorted twice, by
      ``umin`` and by ``umax``, so the two conditions are a prefix of one
      order and a suffix of the other; the shorter of the two is walked
      and filtered by the other condition.  These are the bounds of an
      unrolled binary search.
    * A state holding a pointer or nothing there may cover anything, so
      every lookup scans those.
    """

    __slots__ = ("constants", "by_umin", "by_umax", "rest")

    def __init__(self):
        self.constants: Dict[int, List[State]] = {}
        # (bound, sequence number, other bound, state): the sequence
        # number is unique, so comparisons never reach past it.
        self.by_umin: List[tuple] = []
        self.by_umax: List[tuple] = []
        self.rest: List[State] = []

    def add(self, value, seq: int, state: State) -> None:
        if type(value) is not Scalar:
            self.rest.append(state)
        elif value.umin == value.umax:
            self.constants.setdefault(value.umin, []).append(state)
        else:
            insort(self.by_umin, (value.umin, seq, value.umax, state))
            insort(self.by_umax, (value.umax, seq, value.umin, state))

    def remove_newest(self, value, seq: int) -> None:
        """Drop the state added last (its discriminator value and number)."""
        if type(value) is not Scalar:
            self.rest.pop()
        elif value.umin == value.umax:
            self.constants[value.umin].pop()
        else:
            del self.by_umin[bisect_left(self.by_umin, (value.umin, seq))]
            del self.by_umax[bisect_left(self.by_umax, (value.umax, seq))]

    def candidates(self, value):
        """The states here that may subsume one holding ``value``."""
        yield from self.rest
        if type(value) is not Scalar:
            return
        umin, umax = value.umin, value.umax
        if umin == umax:
            yield from self.constants.get(umin, ())
        below = bisect_left(self.by_umin, (umin + 1,))   # old.umin <= umin
        above = bisect_left(self.by_umax, (umax,))       # old.umax >= umax
        if below <= len(self.by_umax) - above:
            for _, _, old_umax, state in self.by_umin[:below]:
                if old_umax >= umax:
                    yield state
        else:
            for _, _, old_umin, state in self.by_umax[above:]:
                if old_umin <= umin:
                    yield state


class _Recorded:
    """The states recorded at one prune point: on the DFS path, and fully
    explored, each with its dead registers cleared.

    Both sets are indexed (see ``_Table``) by the scalar held in one
    *discriminator* register, the one whose bounds vary most over a sample
    of the states seen here — the loop counter of an unrolled loop, a
    bound of an unrolled binary search.  It is chosen again each time the
    number of states seen here doubles, so choosing it (and re-indexing,
    if it changed) costs a constant per state.  Which register is chosen
    decides only how many candidates a lookup yields, never the verdict.
    """

    __slots__ = ("reg", "path", "done", "active", "explored", "review_at")

    def __init__(self):
        self.reg = 0
        #: States on the current DFS path, in the order entered: matching
        #: one of these means a loop iteration made no progress.
        self.path: List[State] = []
        #: Fully explored states: safe to prune against (that exploration
        #: provably reached exit on every path).
        self.done: List[State] = []
        self.active = _Table()
        self.explored = _Table()
        self.review_at = 8

    def enter(self, state: State) -> None:
        """Record ``state`` as being explored (on the DFS path)."""
        self.path.append(state)
        if len(self.path) + len(self.done) == self.review_at:
            self.review_at *= 2
            self._choose_discriminator()
        self.active.add(state.regs[self.reg], len(self.path), state)

    def leave(self, state: State) -> None:
        """Move ``state`` from the DFS path to the fully explored set."""
        # The DFS leaves states in the reverse of the order it entered
        # them, so the one leaving is the newest on the path.
        value = state.regs[self.reg]
        self.active.remove_newest(value, len(self.path))
        self.path.pop()
        self.done.append(state)
        self.explored.add(value, len(self.done), state)

    def _choose_discriminator(self) -> None:
        seen = self.path + self.done
        sample = seen[::max(1, len(seen) // 16)]

        def spread(reg: int) -> int:
            # Ranges that share a bound nest, and nested ranges cover one
            # another, so a register tells states apart only as far as
            # both of its bounds vary.
            scalars = [state.regs[reg] for state in sample
                       if type(state.regs[reg]) is Scalar]
            return min(len({scalar.umin for scalar in scalars}),
                       len({scalar.umax for scalar in scalars}))

        reg = max(range(11), key=spread)
        if reg != self.reg:
            self.reg = reg
            self.active, self.explored = _Table(), _Table()
            for seq, state in enumerate(self.path[:-1], 1):
                self.active.add(state.regs[reg], seq, state)
            for seq, state in enumerate(self.done, 1):
                self.explored.add(state.regs[reg], seq, state)


class Verifier:
    """One verification run over a program."""

    def __init__(self, program: Program, helpers: HelperRegistry,
                 maps: Optional[Dict[int, object]] = None,
                 state_budget: int = 200_000):
        self.program = program
        self.helpers = helpers
        self.maps = maps or {}
        self.state_budget = state_budget
        self.stats = VerifierStats()

    # ------------------------------------------------------------------

    def run(self) -> VerifierStats:
        """Depth-first exploration with kernel-style loop detection.

        At a *prune point* (pc 0 and every jump target) the registers dead
        there are cleared, and then a state subsumed by a *completed* state
        at the same pc is pruned (that more-general exploration already
        terminated safely), while a state subsumed by an *ancestor on the
        current path* is an infinite loop and is rejected: pruning against
        an ancestor would wrongly certify termination.  Every cycle passes
        through a jump target, so the loop rule sees every loop.  Any other
        instruction steps its states straight through; they count against
        ``state_budget`` and join the proof's facts all the same.
        """
        instructions = self.program.instructions
        insn_count = len(instructions)
        recorded: List[Optional[_Recorded]] = [None] * insn_count
        for pc in self._prune_points():
            recorded[pc] = _Recorded()
        dead = dead_registers(instructions, self.helpers.specs)
        # The registers of every state stepped at each pc: what the
        # proof's facts join.
        explored: List[List[tuple]] = [[] for _ in instructions]
        stats = self.stats
        # Each instruction is decoded once, into the function that steps
        # a state across it; thousands of states may visit one pc.  (A
        # local: the closures hold ``self``, and ``self`` holding them
        # would keep every state alive until the cycle collector runs.)
        transfer = [self._decode(pc, insn) for pc, insn in
                    enumerate(instructions)]

        # Explicit DFS frames: [pc, state, successors or None, next index].
        frames: List[list] = [
            [0, _initial_state(self.program.ctx_layout.size), None, 0]
        ]
        while frames:
            frame = frames[-1]
            pc, state, successors, index = frame
            point = recorded[pc]
            if successors is None:
                if point is not None:
                    state = frame[1] = _without(state, dead[pc])
                    held = state.regs[point.reg]
                    if point.path and \
                            self._covered(point.active, held, state):
                        raise VerifierError("infinite loop detected", pc)
                    if point.done and \
                            self._covered(point.explored, held, state):
                        frames.pop()
                        continue
                stats.states_explored += 1
                if stats.states_explored > self.state_budget:
                    raise VerifierError(
                        "state budget exhausted — program too complex or "
                        "contains a loop the verifier cannot bound", pc)
                successors = transfer[pc](state)
                for next_pc, _next_state in successors:
                    if next_pc >= insn_count:
                        raise VerifierError(
                            "control falls off the program end", pc)
                explored[pc].append(state.regs)
                if point is None and len(successors) == 1:
                    # Nothing to leave here later: step on in this frame.
                    frame[0], frame[1] = successors[0]
                    continue
                frame[2] = successors
                if point is not None:
                    point.enter(state)
                    if len(point.path) > stats.max_states_per_insn:
                        stats.max_states_per_insn = len(point.path)
            if index < len(successors):
                next_pc, next_state = successors[index]
                frame[3] = index + 1
                frames.append([next_pc, next_state, None, 0])
            else:
                if point is not None:
                    point.leave(state)
                frames.pop()
        self.program.verified = True
        self.program.proof = Proof(
            tuple(instructions),
            tuple(self.program.ctx_layout.fields),
            proof_context(self.helpers, self.maps), self._facts(explored))
        return stats

    def _facts(self, explored: List[List[tuple]]) -> tuple:
        """`Proof.facts` of a finished exploration, from the registers of
        every state stepped at each pc.

        A state pruned at a prune point was subsumed there, on the
        registers live there, by a fully explored state.  Each register
        an instruction reads is live at it, so every value of a pruned
        state that a later instruction reads lies inside a value some
        explored state held there, and so inside the join: the facts are
        sound exactly when pruning is (docs/verifier.md, "Why pruned
        states are covered").  Joining afterwards keeps the exploration
        loop free of it.
        """
        facts: List[Optional[tuple]] = []
        for insn, seen in zip(self.program.instructions, explored):
            if not seen:
                facts.append(None)
                continue
            known: List[object] = [None] * 11
            for reg in registers_read(insn, self.helpers.specs):
                known[reg] = _join([regs[reg] for regs in seen])
            facts.append(tuple(known))
        return tuple(facts)

    def _covered(self, table: _Table, held, state: State) -> bool:
        """True if a state in ``table`` subsumes ``state``, which holds
        ``held`` in the discriminator register."""
        stats = self.stats
        for old in table.candidates(held):
            stats.subsumption_checks += 1
            if _subsumes(old, state):
                return True
        return False

    def _prune_points(self) -> set:
        """pc 0 and every jump target; rejects a target out of range."""
        insns = self.program.instructions
        points = {0}
        for pc, insn in enumerate(insns):
            if insn.opcode == "ja" or insn.opcode in _JMP_REFINERS or \
                    insn.opcode == "jset":
                target = pc + 1 + insn.offset
                if not 0 <= target < len(insns):
                    raise VerifierError(
                        f"jump target {target} out of range", pc
                    )
                points.add(target)
        return points

    # ------------------------------------------------------------------
    # Transfer function
    # ------------------------------------------------------------------

    def _decode(self, pc: int, insn):
        """The transfer function of the instruction at ``pc``: a callable
        taking a state there to its ``(next pc, next state)`` successors."""
        op = insn.opcode
        following = pc + 1

        if op == "exit":
            return lambda state: self._check_exit(pc, state)

        if op == "call":
            return lambda state: [
                (following, self._check_call(pc, state, insn.imm))]

        if op == "ja":
            target = following + insn.offset
            return lambda state: [(target, state)]

        imm = Scalar(insn.imm & U64_MAX, insn.imm & U64_MAX)
        if op == "lddw":
            return lambda state: [(following, state.with_reg(insn.dst, imm))]

        is32 = op.endswith("32")
        base = op[:-2] if is32 else op
        if base in _ALU_BASES:
            return lambda state: [
                (following,
                 self._check_alu(pc, state, insn, base, is32, imm))]

        if op in _JMP_REFINERS or op == "jset":
            return lambda state: self._check_jump(pc, state, insn, op, imm)

        if op.startswith("ldx") and op[3:] in MEM_SIZES:
            size = MEM_SIZES[op[3:]]
            return lambda state: [
                (following, self._check_load(pc, state, insn, size))]
        if op.startswith("st"):
            from_reg = op.startswith("stx")
            width = op[3:] if from_reg else op[2:]
            if width in MEM_SIZES:
                size = MEM_SIZES[width]
                return lambda state: [
                    (following,
                     self._check_store(pc, state, insn, size,
                                       None if from_reg else imm))]

        def unknown(state):
            raise VerifierError(f"unknown opcode {op!r}", pc)
        return unknown

    def _check_exit(self, pc: int, state: State) -> List[Tuple[int, State]]:
        r0 = state.regs[0]
        if r0 is NOT_INIT:
            raise VerifierError("exit with uninitialised r0", pc)
        if isinstance(r0, Ptr):
            raise VerifierError("exit with pointer in r0", pc)
        return []

    # -- ALU ------------------------------------------------------------

    def _check_alu(self, pc: int, state: State, insn, base: str,
                   is32: bool, imm: Scalar) -> State:
        if insn.dst == FP_REG:
            raise VerifierError("write to frame pointer r10", pc)
        dst_val = state.regs[insn.dst]
        if base == "neg":
            if dst_val is NOT_INIT:
                raise VerifierError(f"neg of uninitialised r{insn.dst}", pc)
            if isinstance(dst_val, Ptr):
                raise VerifierError("neg of pointer", pc)
            return state.with_reg(insn.dst, UNKNOWN if not is32 else
                                  Scalar(0, U32_MAX))

        if insn.src_is_reg:
            src_val = state.regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"use of uninitialised r{insn.src}", pc)
        else:
            src_val = imm

        if base == "mov":
            if is32:
                if isinstance(src_val, Ptr):
                    raise VerifierError("mov32 of pointer", pc)
                return state.with_reg(insn.dst, _clamp32(src_val))
            return state.with_reg(insn.dst, src_val)

        if dst_val is NOT_INIT:
            raise VerifierError(f"use of uninitialised r{insn.dst}", pc)

        dst_ptr = isinstance(dst_val, Ptr)
        src_ptr = isinstance(src_val, Ptr)
        if dst_ptr or src_ptr:
            if is32:
                raise VerifierError("32-bit ALU on pointer", pc)
            if (dst_ptr and dst_val.maybe_null) or \
                    (src_ptr and src_val.maybe_null):
                raise VerifierError("arithmetic on maybe-null pointer", pc)
            if base == "add":
                if dst_ptr and src_ptr:
                    raise VerifierError("pointer + pointer", pc)
                ptr, scalar = (dst_val, src_val) if dst_ptr else (src_val,
                                                                  dst_val)
                return state.with_reg(insn.dst,
                                      self._ptr_add(pc, ptr, scalar))
            if base == "sub":
                if dst_ptr and src_ptr:
                    if dst_val.region != src_val.region:
                        raise VerifierError(
                            "pointer difference across regions", pc)
                    return state.with_reg(insn.dst, UNKNOWN)
                if dst_ptr and isinstance(src_val, Scalar) and \
                        src_val.const is not None:
                    delta = (-src_val.const) & U64_MAX
                    return state.with_reg(
                        insn.dst,
                        self._ptr_add(pc, dst_val, Scalar(delta, delta)))
                raise VerifierError(
                    "pointer minus unknown value is unbounded", pc)
            raise VerifierError(f"ALU op {base!r} on pointer", pc)

        result = _scalar_alu(base, dst_val, src_val, is32)
        return state.with_reg(insn.dst, result)

    def _ptr_add(self, pc: int, ptr: Ptr, scalar) -> Ptr:
        if not isinstance(scalar, Scalar):
            raise VerifierError("pointer adjusted by pointer", pc)
        # Interpret the scalar as signed when it is a constant near 2^64
        # (assembler encodes negative immediates that way).
        smin, smax = scalar.umin, scalar.umax
        if smin > 2**63:
            smin -= 2**64
            smax -= 2**64
        if smax > _OFF_LIMIT or smin < -_OFF_LIMIT:
            raise VerifierError("pointer offset adjustment unbounded", pc)
        off_min = ptr.off_min + smin
        off_max = ptr.off_max + smax
        if off_min < -_OFF_LIMIT or off_max > _OFF_LIMIT:
            raise VerifierError("pointer offset out of tractable range", pc)
        return replace(ptr, off_min=off_min, off_max=off_max)

    # -- jumps ------------------------------------------------------------

    def _check_jump(self, pc: int, state: State, insn, op: str,
                    imm: Scalar) -> List[Tuple[int, State]]:
        dst_val = state.regs[insn.dst]
        if dst_val is NOT_INIT:
            raise VerifierError(f"jump on uninitialised r{insn.dst}", pc)
        if insn.src_is_reg:
            src_val = state.regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"jump on uninitialised r{insn.src}", pc)
        else:
            src_val = imm

        taken_pc = pc + 1 + insn.offset
        out: List[Tuple[int, State]] = []

        # Pointer null-checks and pointer comparisons.
        if isinstance(dst_val, Ptr) or isinstance(src_val, Ptr):
            if op not in ("jeq", "jne"):
                raise VerifierError(f"ordered comparison {op!r} on pointer",
                                    pc)
            ptr, other, ptr_reg = (
                (dst_val, src_val, insn.dst)
                if isinstance(dst_val, Ptr)
                else (src_val, dst_val, insn.src)
            )
            if isinstance(other, Ptr):
                # ptr vs ptr: both outcomes possible, no refinement.
                return [(taken_pc, state), (pc + 1, state)]
            if isinstance(other, Scalar) and other.const == 0:
                non_null = replace(ptr, maybe_null=False)
                null_scalar = Scalar(0, 0)
                if ptr.maybe_null:
                    if op == "jeq":
                        out.append((taken_pc,
                                    state.with_reg(ptr_reg, null_scalar)))
                        out.append((pc + 1, state.with_reg(ptr_reg, non_null)))
                    else:
                        out.append((taken_pc,
                                    state.with_reg(ptr_reg, non_null)))
                        out.append((pc + 1,
                                    state.with_reg(ptr_reg, null_scalar)))
                    return out
                # Definite pointer never equals NULL.
                return [(pc + 1, state)] if op == "jeq" else [(taken_pc,
                                                               state)]
            # ptr vs non-zero scalar: never equal.
            return [(pc + 1, state)] if op == "jeq" else [(taken_pc, state)]

        if op == "jset":
            if dst_val.const is not None and src_val.const is not None:
                taken = (dst_val.const & src_val.const) != 0
                return [(taken_pc if taken else pc + 1, state)]
            return [(taken_pc, state), (pc + 1, state)]

        refine = _JMP_REFINERS[op]
        results = []
        taken = refine(dst_val, src_val, True)
        if taken is not None:
            new_dst, new_src = taken
            new_state = state.with_reg(insn.dst, new_dst)
            if insn.src_is_reg:
                new_state = new_state.with_reg(insn.src, new_src)
            results.append((taken_pc, new_state))
        not_taken = refine(dst_val, src_val, False)
        if not_taken is not None:
            new_dst, new_src = not_taken
            new_state = state.with_reg(insn.dst, new_dst)
            if insn.src_is_reg:
                new_state = new_state.with_reg(insn.src, new_src)
            results.append((pc + 1, new_state))
        if not results:
            raise VerifierError("branch with no feasible outcome", pc)
        return results

    # -- memory ------------------------------------------------------------

    def _region_of(self, pc: int, ptr: Ptr):
        if ptr.maybe_null:
            raise VerifierError(
                f"dereference of maybe-null pointer into {ptr.region!r} "
                "without a null check", pc)
        return ptr

    def _check_load(self, pc: int, state: State, insn, size: int) -> State:
        base = state.regs[insn.src]
        if base is NOT_INIT:
            raise VerifierError(f"load via uninitialised r{insn.src}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"load via non-pointer r{insn.src}", pc)
        self._region_of(pc, base)
        lo = base.off_min + insn.offset
        hi = base.off_max + insn.offset + size

        if base.region == "ctx":
            if base.off_min != base.off_max:
                raise VerifierError("ctx access with variable offset", pc)
            layout = self.program.ctx_layout
            try:
                ctx_field = layout.field_at(lo, size)
            except KeyError:
                raise VerifierError(
                    f"ctx load at ({lo}, {size}) matches no field", pc)
            if ctx_field.kind is FieldKind.POINTER:
                return state.with_reg(
                    insn.dst, Ptr(ctx_field.region, ctx_field.region_size))
            return state.with_reg(insn.dst, _range_of_size(size))

        if base.region == "stack":
            return self._stack_load(pc, state, insn, lo, hi, size)

        if lo < 0 or hi > base.size:
            raise VerifierError(
                f"load [{lo}, {hi}) out of bounds of {base.region!r} "
                f"({base.size}B)", pc)
        return state.with_reg(insn.dst, _range_of_size(size))

    def _stack_load(self, pc: int, state: State, insn, lo: int, hi: int,
                    size: int) -> State:
        if lo < 0 or hi > STACK_SIZE:
            raise VerifierError(f"stack load [{lo}, {hi}) out of bounds", pc)
        base = state.regs[insn.src]
        if base.off_min != base.off_max:
            raise VerifierError("stack access with variable offset", pc)
        slot = lo // 8
        entry = state.stack.get(slot)
        if size == 8 and lo % 8 == 0 and entry is not None and \
                entry[0] == "ptr":
            return state.with_reg(insn.dst, entry[1])
        # Scalar load: every byte must be initialised.
        for byte in range(lo, hi):
            slot_entry = state.stack.get(byte // 8)
            if slot_entry is None:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
            if slot_entry[0] == "ptr":
                raise VerifierError(
                    "partial read of a spilled pointer", pc)
            if (byte % 8) not in slot_entry[1]:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
        return state.with_reg(insn.dst, _range_of_size(size))

    def _check_store(self, pc: int, state: State, insn, size: int,
                     imm: Optional[Scalar]) -> State:
        """``imm`` is the stored immediate, or None to store ``insn.src``."""
        base = state.regs[insn.dst]
        if base is NOT_INIT:
            raise VerifierError(f"store via uninitialised r{insn.dst}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"store via non-pointer r{insn.dst}", pc)
        self._region_of(pc, base)

        if imm is None:
            value = state.regs[insn.src]
            if value is NOT_INIT:
                raise VerifierError(
                    f"store of uninitialised r{insn.src}", pc)
        else:
            value = imm

        lo = base.off_min + insn.offset
        hi = base.off_max + insn.offset + size

        if base.region == "ctx":
            if base.off_min != base.off_max:
                raise VerifierError("ctx access with variable offset", pc)
            layout = self.program.ctx_layout
            try:
                ctx_field = layout.field_at(lo, size)
            except KeyError:
                raise VerifierError(
                    f"ctx store at ({lo}, {size}) matches no field", pc)
            if ctx_field.kind is not FieldKind.SCALAR or not ctx_field.writable:
                raise VerifierError(
                    f"ctx field {ctx_field.name!r} is not writable", pc)
            if isinstance(value, Ptr):
                raise VerifierError("pointer stored to ctx", pc)
            return state

        if base.region == "stack":
            if base.off_min != base.off_max:
                raise VerifierError("stack access with variable offset", pc)
            if lo < 0 or hi > STACK_SIZE:
                raise VerifierError(
                    f"stack store [{lo}, {hi}) out of bounds", pc)
            stack = dict(state.stack)
            if isinstance(value, Ptr):
                if size != 8 or lo % 8 != 0:
                    raise VerifierError(
                        "pointer spill must be 8-byte aligned", pc)
                if value.maybe_null:
                    raise VerifierError("spill of maybe-null pointer", pc)
                stack[lo // 8] = ("ptr", value)
                return state.with_stack(stack)
            for byte in range(lo, hi):
                slot = byte // 8
                entry = stack.get(slot)
                if entry is None or entry[0] == "ptr":
                    initialised = frozenset()
                else:
                    initialised = entry[1]
                stack[slot] = ("bytes", initialised | {byte % 8})
            return state.with_stack(stack)

        if isinstance(value, Ptr):
            raise VerifierError(
                f"pointer stored to region {base.region!r}", pc)
        if lo < 0 or hi > base.size:
            raise VerifierError(
                f"store [{lo}, {hi}) out of bounds of {base.region!r} "
                f"({base.size}B)", pc)
        writable = self._region_writable(base.region)
        if not writable:
            raise VerifierError(f"store to read-only region {base.region!r}",
                                pc)
        return state

    def _region_writable(self, region: str) -> bool:
        if region.startswith("map_value:"):
            return True
        for ctx_field in self.program.ctx_layout.fields:
            if ctx_field.kind is FieldKind.POINTER and \
                    ctx_field.region == region:
                return ctx_field.writable
        return region == "stack"

    # -- helper calls --------------------------------------------------------

    def _check_call(self, pc: int, state: State, helper_id: int) -> State:
        try:
            spec = self.helpers.spec(helper_id)
        except Exception:
            raise VerifierError(f"call to unknown helper id {helper_id}", pc)

        map_for_call = None
        map_id_for_call = None
        args = list(spec.args)
        for index, kind in enumerate(args):
            reg = 1 + index
            value = state.regs[reg]
            if value is NOT_INIT:
                raise VerifierError(
                    f"helper {spec.name!r}: r{reg} uninitialised", pc)
            if kind is ArgKind.SCALAR:
                if isinstance(value, Ptr):
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be scalar", pc)
            elif kind in (ArgKind.CONST, ArgKind.MAP_ID):
                if not isinstance(value, Scalar) or value.const is None:
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be a known "
                        "constant", pc)
                if kind is ArgKind.MAP_ID:
                    if value.const not in self.maps:
                        raise VerifierError(
                            f"helper {spec.name!r}: unknown map id "
                            f"{value.const}", pc)
                    map_for_call = self.maps[value.const]
                    map_id_for_call = value.const
            elif kind in (ArgKind.MAP_KEY, ArgKind.MAP_VALUE):
                if map_for_call is None:
                    raise VerifierError(
                        f"helper {spec.name!r}: map arg before MAP_ID", pc)
                needed = (map_for_call.key_size if kind is ArgKind.MAP_KEY
                          else map_for_call.value_size)
                self._check_mem_arg(pc, state, spec, reg, value, needed,
                                    writable=False)
            elif kind in (ArgKind.PTR_MEM, ArgKind.PTR_MEM_WRITABLE):
                size_val = state.regs[reg + 1]
                if size_val is NOT_INIT or isinstance(size_val, Ptr):
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg + 1} must be a scalar "
                        "size", pc)
                if size_val.umax > spec.max_size:
                    raise VerifierError(
                        f"helper {spec.name!r}: size in r{reg + 1} unbounded "
                        f"(umax={size_val.umax})", pc)
                self._check_mem_arg(
                    pc, state, spec, reg, value, size_val.umax,
                    writable=(kind is ArgKind.PTR_MEM_WRITABLE))
            elif kind is ArgKind.SIZE:
                continue  # validated together with its pointer
            elif kind is ArgKind.PTR_CTX:
                if not isinstance(value, Ptr) or value.region != "ctx":
                    raise VerifierError(
                        f"helper {spec.name!r}: r{reg} must be ctx pointer",
                        pc)
            else:
                raise VerifierError(
                    f"helper {spec.name!r}: unhandled arg kind {kind}", pc)

        regs = list(state.regs)
        for reg in range(1, 6):
            regs[reg] = NOT_INIT
        if spec.ret is RetKind.VOID:
            regs[0] = Scalar(0, 0)
        elif spec.ret is RetKind.MAP_VALUE_OR_NULL:
            if map_for_call is None:
                raise VerifierError(
                    f"helper {spec.name!r}: returns map value but no map",
                    pc)
            regs[0] = Ptr(f"map_value:{map_id_for_call}",
                          map_for_call.value_size, maybe_null=True)
        else:
            regs[0] = UNKNOWN
        return State(tuple(regs), state.stack)

    def _check_mem_arg(self, pc: int, state: State, spec, reg: int, value,
                       needed: int, writable: bool) -> None:
        if not isinstance(value, Ptr):
            raise VerifierError(
                f"helper {spec.name!r}: r{reg} must be a pointer", pc)
        self._region_of(pc, value)
        if needed == 0:
            return
        lo = value.off_min
        hi = value.off_max + needed
        if value.region == "stack":
            if lo < 0 or hi > STACK_SIZE:
                raise VerifierError(
                    f"helper {spec.name!r}: stack arg [{lo}, {hi}) out of "
                    "bounds", pc)
            if not writable:
                for byte in range(lo, hi):
                    entry = state.stack.get(byte // 8)
                    if entry is None or entry[0] == "ptr" or \
                            (byte % 8) not in entry[1]:
                        raise VerifierError(
                            f"helper {spec.name!r}: stack byte {byte} "
                            "uninitialised", pc)
            return
        if value.region == "ctx":
            raise VerifierError(
                f"helper {spec.name!r}: raw ctx memory may not be passed",
                pc)
        if lo < 0 or hi > value.size:
            raise VerifierError(
                f"helper {spec.name!r}: arg [{lo}, {hi}) out of bounds of "
                f"{value.region!r} ({value.size}B)", pc)
        if writable and not self._region_writable(value.region):
            raise VerifierError(
                f"helper {spec.name!r}: region {value.region!r} is "
                "read-only", pc)


# ---------------------------------------------------------------------------
# Scalar arithmetic and branch refinement
# ---------------------------------------------------------------------------


def _range_of_size(size: int) -> Scalar:
    return Scalar(0, (1 << (8 * size)) - 1)


def _clamp32(value: Scalar) -> Scalar:
    if value.umax <= U32_MAX:
        return value
    return Scalar(0, U32_MAX)


def _scalar_alu(base: str, a: Scalar, b: Scalar, is32: bool) -> Scalar:
    if is32:
        a = _clamp32(a) if a.umax <= U32_MAX else Scalar(0, U32_MAX)
        b = _clamp32(b) if b.umax <= U32_MAX else Scalar(0, U32_MAX)
    top = U32_MAX if is32 else U64_MAX

    result = None
    if base == "add":
        if a.umax + b.umax <= top:
            result = Scalar(a.umin + b.umin, a.umax + b.umax)
    elif base == "sub":
        if a.umin >= b.umax:
            result = Scalar(a.umin - b.umax, a.umax - b.umin)
    elif base == "mul":
        if a.umax * b.umax <= top:
            result = Scalar(a.umin * b.umin, a.umax * b.umax)
    elif base == "and":
        result = Scalar(0, min(a.umax, b.umax))
    elif base in ("or", "xor"):
        bits = max(a.umax, b.umax).bit_length()
        if bits < 64:
            result = Scalar(0, (1 << bits) - 1)
    elif base == "lsh":
        if b.const is not None:
            shift = b.const & (31 if is32 else 63)
            if a.umax << shift <= top:
                result = Scalar(a.umin << shift, a.umax << shift)
    elif base == "rsh":
        if b.const is not None:
            shift = b.const & (31 if is32 else 63)
            result = Scalar(a.umin >> shift, a.umax >> shift)
    elif base == "div":
        if b.const is not None and b.const > 0:
            result = Scalar(a.umin // b.const, a.umax // b.const)
    elif base == "mod":
        if b.const is not None and b.const > 0:
            if a.umax < b.const:
                result = a
            else:
                result = Scalar(0, b.const - 1)
    elif base == "arsh":
        # Equal to the logical shift only below the operand's sign bit,
        # which for a 32-bit operand is bit 31.
        if a.umax < (2**31 if is32 else 2**63) and b.const is not None:
            shift = b.const & (31 if is32 else 63)
            result = Scalar(a.umin >> shift, a.umax >> shift)

    if result is None:
        result = Scalar(0, top)
    if is32 and result.umax > U32_MAX:
        result = Scalar(0, U32_MAX)
    return result


def _refine(op):
    """Build a refinement function for an unsigned comparison.

    Returns ``fn(a, b, taken)`` yielding refined ``(a, b)`` scalars for the
    requested edge, or None if that edge is infeasible.
    """

    def refine(a: Scalar, b: Scalar, taken: bool):
        effective = op if taken else _NEGATION[op]
        if effective == "jeq":
            lo = max(a.umin, b.umin)
            hi = min(a.umax, b.umax)
            if lo > hi:
                return None
            return Scalar(lo, hi), Scalar(lo, hi)
        if effective == "jne":
            if a.const is not None and a.const == b.const:
                return None
            # Shave the boundary when one side is constant.
            new_a, new_b = a, b
            if b.const is not None:
                if a.umin == b.const and a.umin < a.umax:
                    new_a = Scalar(a.umin + 1, a.umax)
                elif a.umax == b.const and a.umin < a.umax:
                    new_a = Scalar(a.umin, a.umax - 1)
            if a.const is not None:
                if b.umin == a.const and b.umin < b.umax:
                    new_b = Scalar(b.umin + 1, b.umax)
                elif b.umax == a.const and b.umin < b.umax:
                    new_b = Scalar(b.umin, b.umax - 1)
            return new_a, new_b
        if effective == "jgt":  # a > b
            if a.umax <= b.umin:
                return None
            return (Scalar(max(a.umin, b.umin + 1), a.umax),
                    Scalar(b.umin, min(b.umax, a.umax - 1)))
        if effective == "jge":  # a >= b
            if a.umax < b.umin:
                return None
            return (Scalar(max(a.umin, b.umin), a.umax),
                    Scalar(b.umin, min(b.umax, a.umax)))
        if effective == "jlt":  # a < b
            if a.umin >= b.umax:
                return None
            return (Scalar(a.umin, min(a.umax, b.umax - 1)),
                    Scalar(max(b.umin, a.umin + 1), b.umax))
        if effective == "jle":  # a <= b
            if a.umin > b.umax:
                return None
            return (Scalar(a.umin, min(a.umax, b.umax)),
                    Scalar(max(b.umin, a.umin), b.umax))
        if effective in ("jsgt", "jsge", "jslt", "jsle"):
            # Signed comparisons: when both ranges sit in the non-negative
            # half they coincide with the unsigned refiners; otherwise give
            # up refinement but keep both edges feasible.
            if a.umax < 2**63 and b.umax < 2**63:
                unsigned = {"jsgt": "jgt", "jsge": "jge", "jslt": "jlt",
                            "jsle": "jle"}[effective]
                return _refine_table(unsigned)(a, b, True)
            return a, b
        raise AssertionError(effective)

    return refine


_NEGATION = {
    "jeq": "jne", "jne": "jeq",
    "jgt": "jle", "jle": "jgt",
    "jge": "jlt", "jlt": "jge",
    "jsgt": "jsle", "jsle": "jsgt",
    "jsge": "jslt", "jslt": "jsge",
}

_REFINERS_CACHE: Dict[str, object] = {}


def _refine_table(op: str):
    if op not in _REFINERS_CACHE:
        _REFINERS_CACHE[op] = _refine(op)
    return _REFINERS_CACHE[op]


_JMP_REFINERS = {
    op: _refine_table(op)
    for op in ("jeq", "jne", "jgt", "jge", "jlt", "jle", "jsgt", "jsge",
               "jslt", "jsle")
}


# ---------------------------------------------------------------------------
# State subsumption (pruning)
# ---------------------------------------------------------------------------


def _value_subsumes(old, new) -> bool:
    """True if having verified ``old`` covers ``new`` (old is more general)."""
    if old is NOT_INIT:
        return True  # verified without knowing the register at all
    if new is NOT_INIT:
        return False
    if isinstance(old, Scalar) and isinstance(new, Scalar):
        return old.umin <= new.umin and old.umax >= new.umax
    if isinstance(old, Ptr) and isinstance(new, Ptr):
        return (old.region == new.region and old.size == new.size and
                old.off_min <= new.off_min and old.off_max >= new.off_max and
                (old.maybe_null or not new.maybe_null))
    return False


def _subsumes(old: State, new: State) -> bool:
    for old_val, new_val in zip(old.regs, new.regs):
        # ``with_reg`` shares the untouched registers between states.
        if old_val is not new_val and not _value_subsumes(old_val, new_val):
            return False
    if old.stack is new.stack:
        return True
    # Old must have been verified with *less* stack knowledge.
    for slot, entry in old.stack.items():
        new_entry = new.stack.get(slot)
        if entry[0] == "ptr":
            if new_entry is None or new_entry[0] != "ptr" or \
                    not _value_subsumes(entry[1], new_entry[1]):
                return False
        else:
            if new_entry is None or new_entry[0] != "bytes" or \
                    not entry[1] <= new_entry[1]:
                return False
    return True


def proof_context(helpers: HelperRegistry,
                  maps: Optional[Dict[int, object]] = None) -> tuple:
    """What a verdict depends on besides the program and its ctx layout.

    Helper signatures decide how calls type-check, and the key and value
    sizes of each map bound the accesses through its pointers.  A program
    proved against one context may fault under another, so whoever relies
    on ``program.verified`` compares this with ``program.verified_against``
    (the install ioctl re-verifies on a mismatch; the block tier compiles
    its guards back in, see `Proof.covers`).
    """
    return (dict(helpers.specs),
            {map_id: (bpf_map.key_size, bpf_map.value_size)
             for map_id, bpf_map in (maps or {}).items()})


def verify(program: Program, helpers: HelperRegistry,
           maps: Optional[Dict[int, object]] = None,
           state_budget: int = 200_000) -> VerifierStats:
    """Verify ``program``; raises :class:`VerifierError` on rejection.

    On success, marks ``program.verified``, attaches the `Proof` (what was
    established per instruction, and what it was made for and against) as
    ``program.proof`` and returns exploration stats.
    """
    return Verifier(program, helpers, maps, state_budget).run()
