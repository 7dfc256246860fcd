"""Static verifier: abstract interpretation over register/stack state.

Before a program may be attached to a storage hook it must pass this
verifier, which proves — without running the program on real data — that:

* no register is read before it is written;
* every load and store lands inside a region the program legitimately holds
  a pointer into (context, stack, buffers reachable from the context), with
  statically bounded offsets;
* helper calls match their declared signatures: every argument is an
  initialised scalar, never a pointer;
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
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import attrgetter, is_not, itemgetter
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import VerifierError
from repro.ebpf.helpers import HelperRegistry
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

    def __repr__(self) -> str:
        return f"Ptr({self.region}+[{self.off_min},{self.off_max}])"


class NotInit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotInit"


NOT_INIT = NotInit()

#: ``Scalar(umin, umax)`` and ``Ptr(region, size, off_min, off_max)``,
#: one shared object per value while the cache holds it.
#: Building a frozen dataclass costs about a microsecond, and a
#: verification builds the same few thousand values over and over.
_scalar = lru_cache(maxsize=1 << 14)(Scalar)
_ptr = lru_cache(maxsize=1 << 14)(Ptr)

_ALU_BASES = frozenset(("add", "sub", "mul", "div", "mod", "or", "and", "xor",
                        "lsh", "rsh", "arsh", "mov", "neg"))


class State:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "stack")

    def __init__(self, regs, stack):
        self.regs = regs          # tuple of 11 abstract values
        self.stack = stack        # dict slot_index -> ("ptr", Ptr)|("bytes", frozenset)


def _initial_state(ctx_size: int) -> State:
    regs = [NOT_INIT] * 11
    regs[1] = _ptr("ctx", ctx_size, 0, 0)
    regs[FP_REG] = _ptr("stack", STACK_SIZE, STACK_SIZE, STACK_SIZE)
    return State(tuple(regs), {})


@dataclass(frozen=True)
class Proof:
    """What one successful verification established, and what it holds for.

    ``facts[pc]`` is None for an instruction no explored state reached;
    otherwise it has one entry per register, holding for each register
    *that instruction reads* the join of its abstract value over every
    state explored there, or None where nothing is known:

    * ``Scalar(umin, umax)``: the register is an integer in that range;
    * ``Ptr(region, size, off_min, off_max)``: it is a pointer into that
      region, of that size, at an offset in range.

    ``dead[pc]`` names the registers no path from ``pc`` reads before
    writing (`dead_registers`): those the exploration cleared at its prune
    points, and what the code generator's liveness questions need.

    The facts hold for a run only of exactly these ``instructions``, over
    a context of exactly this ``layout``, in an environment whose
    ``proof_context`` equals ``context``; ``covers`` is that comparison,
    and whoever spends a fact makes it first (`repro.ebpf.vm` does, at
    compile time).  A proof holds no `State`.
    """

    instructions: Tuple[Instruction, ...]
    layout: Tuple[CtxField, ...]
    context: dict
    facts: Tuple[Optional[tuple], ...]
    dead: Tuple[tuple, ...]

    def covers(self, program: Program, context: dict) -> bool:
        """True if ``program``, as it is now, run under ``context`` (a
        `proof_context`), is what this proof was made for and against."""
        return (self.instructions == tuple(program.instructions)
                and self.layout == tuple(program.ctx_layout.fields)
                and self.context == context)


def _join(values):
    """The least fact covering every abstract value in ``values``: the
    range hull of scalars, the offset hull of pointers into one region of
    one size, and None (nothing known) for anything else: an
    uninitialised register, mixed classes."""
    kinds = set(map(type, values))
    if kinds == {Scalar}:
        return _scalar(min(map(_UMIN, values)), max(map(_UMAX, values)))
    if kinds != {Ptr}:
        return None
    first = values[0]
    if len(set(map(_PTR_KIND, values))) > 1:
        return None
    return _ptr(first.region, first.size, min(map(_OFF_MIN, values)),
                max(map(_OFF_MAX, values)))


_UMIN, _UMAX = attrgetter("umin"), attrgetter("umax")
_OFF_MIN, _OFF_MAX = attrgetter("off_min"), attrgetter("off_max")
_PTR_KIND = attrgetter("region", "size")


def registers_read(insn: Instruction, specs: Mapping[int, object]) -> tuple:
    """The registers whose values decide what ``insn`` does: a load's base,
    a store's base and stored register, both operands of an ALU operation
    or a branch, the arguments the called helper's spec (in ``specs``, by
    helper id) names."""
    op = insn.opcode
    if op == "call":
        spec = specs.get(insn.imm)
        return tuple(range(1, 1 + spec.nargs)) if spec else ()
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
        elif op in _EDGES or op == "jset":
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
    dead = {mask: tuple(reg for reg in range(FP_REG) if not mask >> reg & 1)
            for mask in set(live)}
    return [dead[mask] for mask in live]


def _snapshot(dead: tuple) -> itemgetter:
    """A function of a run's register list (the 11 registers, then
    `NOT_INIT`) to the register tuple of a state, with those in ``dead``
    cleared to `NOT_INIT`, the one object, so `_subsumes` skips them by
    identity."""
    return itemgetter(*(11 if reg in dead else reg for reg in range(11)))


_KEEP = _snapshot(())
#: Heads every list of values an instruction read (`Verifier.run`), so
#: a transfer function compares with the last one unconditionally.
_FIRST = object()


def _exhausted(pc: int) -> VerifierError:
    return VerifierError("state budget exhausted — program too complex or "
                         "contains a loop the verifier cannot bound", pc)


def _then(step, following: int, snapshot: itemgetter):
    """The end of a run whose last instruction, ``step``, has the one
    successor ``following``, a prune point whose registers ``snapshot``
    takes."""
    def then(regs, stack):
        stack = step(regs, stack)
        return following, State(snapshot(regs), stack)
    return then


def _last(end, pc: int):
    """``end``, of the run holding the last instruction (at ``pc``),
    rejecting a successor past it: only the last instruction can fall off
    the end."""
    def last(regs, stack):
        successors = end(regs, stack)
        for next_pc, _state in ((successors,) if successors.__class__ is
                                tuple else successors):
            if next_pc > pc:
                raise VerifierError("control falls off the program end", pc)
        return successors
    return last


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

    def candidates(self, value) -> list:
        """The states here that may subsume one holding ``value``, in the
        order they are tried."""
        if value.__class__ is not Scalar:
            return self.rest
        umin, umax = value.umin, value.umax
        found = self.rest
        if umin == umax:
            bucket = self.constants.get(umin)
            if bucket:
                found = found + bucket if found else bucket
        if not self.by_umin:
            return found
        below = bisect_left(self.by_umin, (umin + 1,))   # old.umin <= umin
        above = bisect_left(self.by_umax, (umax,))       # old.umax >= umax
        if below <= len(self.by_umax) - above:
            return found + [state for _, _, old_umax, state
                            in self.by_umin[:below] if old_umax >= umax]
        return found + [state for _, _, old_umin, state
                        in self.by_umax[above:] if old_umin <= umin]


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
        sample = [state.regs for state in seen[::max(1, len(seen) // 16)]]

        def spread(reg: int) -> int:
            # Ranges that share a bound nest, and nested ranges cover one
            # another, so a register tells states apart only as far as
            # both of its bounds vary.
            scalars = [value for value in map(itemgetter(reg), sample)
                       if value.__class__ is Scalar]
            return min(len(set(map(_UMIN, scalars))),
                       len(set(map(_UMAX, scalars))))

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
                 state_budget: int = 200_000):
        self.program = program
        self.helpers = helpers
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
        through a jump target, so the loop rule sees every loop.

        Between prune points a state is stepped through its *run*, the
        instructions up to the next branch, ``exit``, ``ja`` or prune
        point, on one mutable register list: one list and one successor
        `State` per run, not per instruction.  Each instruction of a run
        still counts as one state against ``state_budget`` and in
        ``states_explored``, an error names the instruction that raised
        it, and every register an instruction reads joins its pc's fact.
        """
        program = self.program
        instructions = program.instructions
        specs = self.helpers.specs
        insn_count = len(instructions)
        points = self._prune_points()
        dead = dead_registers(instructions, specs)
        recorded: List[Optional[_Recorded]] = [None] * insn_count
        for pc in points:
            recorded[pc] = _Recorded()
        # Per successor pc (one past the end too), the function taking a
        # run's register list to the state's register tuple: at a prune
        # point it clears the registers dead there.
        self._snaps = [_snapshot(dead[pc]) if pc in points else _KEEP
                       for pc in range(insn_count)] + [_KEEP]
        # Per pc, each register the instruction reads -> `_FIRST`, then
        # the values it held there in the order stepped, a value that is
        # the object added last not added again: what the facts join.
        seen = [{reg: [_FIRST] for reg in registers_read(insn, specs)}
                for insn in instructions]
        runs = self._runs(points, seen)
        ran = bytearray(insn_count)
        subsumes = _subsumes
        budget = self.state_budget
        states = checks = widest = 0
        initial = _initial_state(program.ctx_layout.size)
        # The DFS's work: ``(pc, state)`` to explore, or ``(~pc, state)``
        # to leave once everything pushed after it is explored.
        work = [(0, State(self._snaps[0]([*initial.regs, NOT_INIT]),
                          initial.stack))]
        pop, push, extend = work.pop, work.append, work.extend
        try:
            while work:
                pc, state = pop()
                if pc < 0:
                    recorded[~pc].leave(state)
                    continue
                # Step on in this frame while there is one successor.
                while True:
                    point = recorded[pc]
                    if point is not None:
                        held = state.regs[point.reg]
                        if point.path:
                            for old in point.active.candidates(held):
                                checks += 1
                                if subsumes(old, state):
                                    raise VerifierError(
                                        "infinite loop detected", pc)
                        if point.done:
                            for old in point.explored.candidates(held):
                                checks += 1
                                if subsumes(old, state):
                                    break
                            else:
                                old = None
                            if old is not None:
                                break
                    length, steps, end = runs[pc]
                    states += length
                    ran[pc] = 1
                    regs = [*state.regs, NOT_INIT]
                    stack = state.stack
                    try:
                        if states > budget:
                            # Step the states the budget has left, then
                            # fail at the first one it has not.
                            left = budget + length - states
                            for step in steps[:left]:
                                stack = step(regs, stack)
                            raise _exhausted(pc + left)
                        for step in steps:
                            stack = step(regs, stack)
                        successors = end(regs, stack)
                    except VerifierError as error:
                        # Count the run's states up to the one that failed,
                        # and the prune point's if it was stepped.
                        states += error.pc - pc + 1 - length
                        if point is not None and error.pc != pc:
                            widest = max(widest, len(point.path) + 1)
                        raise
                    if point is not None:
                        # Left once everything explored from here is.
                        point.enter(state)
                        if len(point.path) > widest:
                            widest = len(point.path)
                        push((~pc, state))
                    if successors.__class__ is not tuple:
                        extend(successors)
                        break
                    pc, state = successors
        finally:
            stats = self.stats
            stats.states_explored = states
            stats.max_states_per_insn = max(stats.max_states_per_insn, widest)
            stats.subsumption_checks += checks
        program.verified = True
        program.proof = Proof(
            tuple(instructions), tuple(program.ctx_layout.fields),
            proof_context(self.helpers),
            _facts(seen, runs, ran), tuple(dead))
        return stats

    def _runs(self, points: set, seen: list) -> list:
        """Per pc that starts a run (a prune point, or the instruction
        after a conditional branch), ``(length, steps, end)``: the
        transfer functions of all but its last instruction, and ``end``,
        which steps the last and returns its successors, one ``(next pc,
        next state)`` pair or a list of them, the one to explore first
        last; None at every other pc."""
        insns = self.program.instructions
        count = len(insns)
        decoded = list(map(self._decode, range(count), insns, seen))
        starts = set(points)
        starts.update(pc + 1 for pc, (step, end) in enumerate(decoded)
                      if end is not None and insns[pc].opcode != "ja"
                      and insns[pc].opcode != "exit" and pc + 1 < count)
        runs: List[Optional[tuple]] = [None] * count
        for start in starts:
            steps = []
            pc = start
            while True:
                step, end = decoded[pc]
                if end is not None:
                    break
                if pc + 1 == count or pc + 1 in points:
                    end = _then(step, pc + 1, self._snaps[pc + 1])
                    break
                steps.append(step)
                pc += 1
            if pc == count - 1:
                end = _last(end, pc)
            runs[start] = (pc - start + 1, tuple(steps), end)
        return runs

    def _prune_points(self) -> set:
        """pc 0 and every jump target; rejects a target out of range."""
        insns = self.program.instructions
        points = {0}
        for pc, insn in enumerate(insns):
            if insn.opcode == "ja" or insn.opcode in _EDGES or \
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

    def _decode(self, pc: int, insn, seen: dict) -> tuple:
        """The transfer function of the instruction at ``pc``, as ``(step,
        None)`` or ``(None, end)``.

        ``step(regs, stack)`` steps an instruction whose one successor is
        ``pc + 1``: it updates the register list ``regs`` in place and
        returns the stack, a new dict if it wrote one.  ``end(regs,
        stack)`` steps ``exit``, ``ja`` or a conditional branch and returns
        its successors, as a run's ``end`` does.  Both first add every
        register the instruction reads to its list in ``seen``, unless
        it is the object added there last.

        The operands, the immediate and the edge refiners are bound here.
        The common cases (an operation on two scalars, a move, a branch on
        two scalars) are stepped inline; every other case, every error
        among them, goes through the ``_check_*`` method of its class, so
        errors, their order and their text are those of that method.
        """
        op = insn.opcode
        following = pc + 1
        dst, src, from_reg = insn.dst, insn.src, insn.src_is_reg
        notes = tuple(seen.items())

        def noted(check):
            def step(regs, stack):
                for reg, values in notes:
                    if regs[reg] is not values[-1]:
                        values.append(regs[reg])
                return check(regs, stack)
            return step

        if op == "exit":
            return None, lambda regs, stack: self._check_exit(pc, regs)

        if op == "call":
            def call(regs, stack):
                self._check_call(pc, regs, stack, insn.imm)
                return stack
            return noted(call), None

        if op == "ja":
            target = following + insn.offset
            at_target = self._snaps[target]
            return None, lambda regs, stack: (target,
                                              State(at_target(regs), stack))

        def set_to(value):
            def constant(regs, stack):
                regs[dst] = value
                return stack
            return constant

        imm = _scalar(insn.imm & U64_MAX, insn.imm & U64_MAX)
        if op == "lddw":
            return set_to(imm), None

        is32 = op.endswith("32")
        base = op[:-2] if is32 else op
        if base in _ALU_BASES:
            check_alu = self._check_alu

            def generic_alu(regs, stack):
                regs[dst] = check_alu(pc, regs, insn, base, is32, imm)
                return stack
            if dst == FP_REG or base == "neg":
                return noted(generic_alu), None
            if base == "mov":
                if not from_reg:
                    return set_to(_clamp32(imm) if is32 else imm), None
                values = seen[src]

                def move(regs, stack):
                    value = regs[src]
                    if value is not values[-1]:
                        values.append(value)
                    if value.__class__ is Scalar:
                        regs[dst] = _clamp32(value) if is32 else value
                    elif is32 or value is NOT_INIT:
                        return generic_alu(regs, stack)
                    else:
                        regs[dst] = value
                    return stack
                return move, None
            arith = _ARITH[base, is32]
            at_dst, at_src = seen[dst], seen.get(src)

            def alu(regs, stack):
                a = regs[dst]
                if a is not at_dst[-1]:
                    at_dst.append(a)
                if from_reg:
                    b = regs[src]
                    if b is not at_src[-1]:
                        at_src.append(b)
                else:
                    b = imm
                if a.__class__ is not Scalar or b.__class__ is not Scalar:
                    return generic_alu(regs, stack)
                regs[dst] = arith(a, b)
                return stack
            return alu, None

        if op in _EDGES or op == "jset":
            def check_jump(regs, stack):
                return self._check_jump(pc, regs, stack, insn, op, imm)
            if op == "jset":
                return None, noted(check_jump)
            target = following + insn.offset
            taken_edge, fall_edge = _EDGES[op], _EDGES[_NEGATION[op]]
            at_following, at_target = self._snaps[following], \
                self._snaps[target]
            at_dst, at_src = seen[dst], seen.get(src)

            def jump(regs, stack):
                a = regs[dst]
                if a is not at_dst[-1]:
                    at_dst.append(a)
                if from_reg:
                    b = regs[src]
                    if b is not at_src[-1]:
                        at_src.append(b)
                else:
                    b = imm
                if a.__class__ is not Scalar or b.__class__ is not Scalar:
                    return check_jump(regs, stack)
                taken, fall = taken_edge(a, b), fall_edge(a, b)
                if fall is None:
                    if taken is None:
                        raise VerifierError("branch with no feasible outcome",
                                            pc)
                    regs[dst] = taken[0]
                    if from_reg:
                        regs[src] = taken[1]
                    return target, State(at_target(regs), stack)
                regs[dst] = fall[0]
                if from_reg:
                    regs[src] = fall[1]
                fall = following, State(at_following(regs), stack)
                if taken is None:
                    return fall
                regs[dst] = taken[0]
                if from_reg:
                    regs[src] = taken[1]
                return [fall, (target, State(at_target(regs), stack))]
            return None, jump

        if op.startswith("ldx") and op[3:] in MEM_SIZES:
            size = MEM_SIZES[op[3:]]
            check_load = self._check_load
            values = seen[src]

            def load(regs, stack):
                if regs[src] is not values[-1]:
                    values.append(regs[src])
                regs[dst] = check_load(pc, regs, stack, insn, size)
                return stack
            return load, None

        if op.startswith("st"):
            stx = op.startswith("stx")
            width = op[3:] if stx else op[2:]
            if width in MEM_SIZES:
                size = MEM_SIZES[width]
                stored = None if stx else imm
                check_store = self._check_store

                def store(regs, stack):
                    return check_store(pc, regs, stack, insn, size, stored)
                return noted(store), None

        def unknown(regs, stack):
            raise VerifierError(f"unknown opcode {op!r}", pc)
        return unknown, None

    def _check_exit(self, pc: int, regs: list) -> list:
        r0 = regs[0]
        if r0 is NOT_INIT:
            raise VerifierError("exit with uninitialised r0", pc)
        if isinstance(r0, Ptr):
            raise VerifierError("exit with pointer in r0", pc)
        return []

    # -- ALU ------------------------------------------------------------

    def _check_alu(self, pc: int, regs: list, insn, base: str,
                   is32: bool, imm: Scalar):
        """The new value of ``dst`` after a write to r10, a ``neg``, or an
        operation on a pointer or an uninitialised register; `_decode`
        steps a move and an operation on two scalars inline."""
        if insn.dst == FP_REG:
            raise VerifierError("write to frame pointer r10", pc)
        dst_val = regs[insn.dst]
        if base == "neg":
            if dst_val is NOT_INIT:
                raise VerifierError(f"neg of uninitialised r{insn.dst}", pc)
            if isinstance(dst_val, Ptr):
                raise VerifierError("neg of pointer", pc)
            return UNKNOWN if not is32 else _U32_RANGE

        if insn.src_is_reg:
            src_val = regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"use of uninitialised r{insn.src}", pc)
        else:
            src_val = imm

        if base == "mov":
            # The one move `_decode` leaves: a pointer's low 32 bits.
            raise VerifierError("mov32 of pointer", pc)

        if dst_val is NOT_INIT:
            raise VerifierError(f"use of uninitialised r{insn.dst}", pc)

        # Both operands are initialised and not both scalars.
        dst_ptr = isinstance(dst_val, Ptr)
        src_ptr = isinstance(src_val, Ptr)
        if is32:
            raise VerifierError("32-bit ALU on pointer", pc)
        if base == "add":
            if dst_ptr and src_ptr:
                raise VerifierError("pointer + pointer", pc)
            ptr, scalar = (dst_val, src_val) if dst_ptr else (src_val,
                                                              dst_val)
            return self._ptr_add(pc, ptr, scalar)
        if base == "sub":
            if dst_ptr and src_ptr:
                if dst_val.region != src_val.region:
                    raise VerifierError("pointer difference across regions",
                                        pc)
                return UNKNOWN
            if dst_ptr and isinstance(src_val, Scalar) and \
                    src_val.const is not None:
                delta = (-src_val.const) & U64_MAX
                return self._ptr_add(pc, dst_val, _scalar(delta, delta))
            raise VerifierError(
                "pointer minus unknown value is unbounded", pc)
        raise VerifierError(f"ALU op {base!r} on pointer", pc)

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
        return _ptr(ptr.region, ptr.size, off_min, off_max)

    # -- jumps ------------------------------------------------------------

    def _check_jump(self, pc: int, regs: list, stack: dict, insn, op: str,
                    imm: Scalar):
        """The successors of a branch on a pointer or an uninitialised
        register, or of a ``jset``; `_decode` refines a branch on two
        scalars inline."""
        dst_val = regs[insn.dst]
        if dst_val is NOT_INIT:
            raise VerifierError(f"jump on uninitialised r{insn.dst}", pc)
        if insn.src_is_reg:
            src_val = regs[insn.src]
            if src_val is NOT_INIT:
                raise VerifierError(f"jump on uninitialised r{insn.src}", pc)
        else:
            src_val = imm

        taken_pc = pc + 1 + insn.offset
        at_fall, at_taken = self._snaps[pc + 1], self._snaps[taken_pc]
        fall, taken = State(at_fall(regs), stack), State(at_taken(regs), stack)

        # Pointer comparisons.
        if isinstance(dst_val, Ptr) or isinstance(src_val, Ptr):
            if op not in ("jeq", "jne"):
                raise VerifierError(f"ordered comparison {op!r} on pointer",
                                    pc)
            if isinstance(dst_val, Ptr) and isinstance(src_val, Ptr):
                # ptr vs ptr: both outcomes possible, no refinement.
                return [(pc + 1, fall), (taken_pc, taken)]
            # A pointer never equals a scalar, NULL included.
            return (pc + 1, fall) if op == "jeq" else (taken_pc, taken)

        if dst_val.const is not None and src_val.const is not None:
            if dst_val.const & src_val.const:
                return taken_pc, taken
            return pc + 1, fall
        return [(pc + 1, fall), (taken_pc, taken)]

    # -- memory ------------------------------------------------------------

    def _check_load(self, pc: int, regs: list, stack: dict, insn,
                    size: int):
        """The value a load leaves in ``dst``."""
        base = regs[insn.src]
        if base is NOT_INIT:
            raise VerifierError(f"load via uninitialised r{insn.src}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"load via non-pointer r{insn.src}", pc)
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
                return _ptr(ctx_field.region, ctx_field.region_size, 0, 0)
            return _RANGE_OF_SIZE[size]

        if base.region == "stack":
            return self._stack_load(pc, base, stack, lo, hi, size)

        if lo < 0 or hi > base.size:
            raise VerifierError(
                f"load [{lo}, {hi}) out of bounds of {base.region!r} "
                f"({base.size}B)", pc)
        return _RANGE_OF_SIZE[size]

    def _stack_load(self, pc: int, base: Ptr, stack: dict, lo: int, hi: int,
                    size: int):
        if lo < 0 or hi > STACK_SIZE:
            raise VerifierError(f"stack load [{lo}, {hi}) out of bounds", pc)
        if base.off_min != base.off_max:
            raise VerifierError("stack access with variable offset", pc)
        slot = lo // 8
        entry = stack.get(slot)
        if size == 8 and lo % 8 == 0 and entry is not None and \
                entry[0] == "ptr":
            return entry[1]
        # Scalar load: every byte must be initialised.
        for byte in range(lo, hi):
            slot_entry = stack.get(byte // 8)
            if slot_entry is None:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
            if slot_entry[0] == "ptr":
                raise VerifierError(
                    "partial read of a spilled pointer", pc)
            if (byte % 8) not in slot_entry[1]:
                raise VerifierError(
                    f"read of uninitialised stack byte {byte}", pc)
        return _RANGE_OF_SIZE[size]

    def _check_store(self, pc: int, regs: list, stack: dict, insn,
                     size: int, imm: Optional[Scalar]) -> dict:
        """The stack after a store; ``imm`` is the stored immediate, or
        None to store ``insn.src``."""
        base = regs[insn.dst]
        if base is NOT_INIT:
            raise VerifierError(f"store via uninitialised r{insn.dst}", pc)
        if not isinstance(base, Ptr):
            raise VerifierError(f"store via non-pointer r{insn.dst}", pc)

        if imm is None:
            value = regs[insn.src]
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
            return stack

        if base.region == "stack":
            if base.off_min != base.off_max:
                raise VerifierError("stack access with variable offset", pc)
            if lo < 0 or hi > STACK_SIZE:
                raise VerifierError(
                    f"stack store [{lo}, {hi}) out of bounds", pc)
            stack = dict(stack)
            if isinstance(value, Ptr):
                if size != 8 or lo % 8 != 0:
                    raise VerifierError(
                        "pointer spill must be 8-byte aligned", pc)
                stack[lo // 8] = ("ptr", value)
                return stack
            for byte in range(lo, hi):
                slot = byte // 8
                entry = stack.get(slot)
                if entry is None or entry[0] == "ptr":
                    initialised = frozenset()
                else:
                    initialised = entry[1]
                stack[slot] = ("bytes", initialised | {byte % 8})
            return stack

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
        return stack

    def _region_writable(self, region: str) -> bool:
        for ctx_field in self.program.ctx_layout.fields:
            if ctx_field.kind is FieldKind.POINTER and \
                    ctx_field.region == region:
                return ctx_field.writable
        return region == "stack"

    # -- helper calls --------------------------------------------------------

    def _check_call(self, pc: int, regs: list, stack: dict,
                    helper_id: int) -> None:
        """Checks a call's arguments and sets r0-r5 as it leaves them."""
        try:
            spec = self.helpers.spec(helper_id)
        except Exception:
            raise VerifierError(f"call to unknown helper id {helper_id}", pc)

        for reg in range(1, 1 + spec.nargs):
            value = regs[reg]
            if value is NOT_INIT:
                raise VerifierError(
                    f"helper {spec.name!r}: r{reg} uninitialised", pc)
            if isinstance(value, Ptr):
                raise VerifierError(
                    f"helper {spec.name!r}: r{reg} must be scalar", pc)

        for reg in range(1, 6):
            regs[reg] = NOT_INIT
        regs[0] = UNKNOWN


def _facts(seen: list, runs: list, ran: bytearray) -> tuple:
    """`Proof.facts` of a finished exploration: at each pc of every run
    stepped, the join of the values each register it reads held there.

    A state pruned at a prune point was subsumed there, on the registers
    live there, by a fully explored state.  Each register an instruction
    reads is live at it, so every value of a pruned state that a later
    instruction reads lies inside a value some explored state held there,
    and so inside the join: the facts are sound exactly when pruning is
    (docs/verifier.md, "Why pruned states are covered").
    """
    facts: List[Optional[tuple]] = [None] * len(seen)
    for start, run in enumerate(runs):
        if run is None or not ran[start]:
            continue
        for pc in range(start, start + run[0]):
            known: List[object] = [None] * 11
            for reg, values in seen[pc].items():
                known[reg] = _join(values[1:])
            facts[pc] = tuple(known)
    return tuple(facts)


# ---------------------------------------------------------------------------
# Scalar arithmetic and branch refinement
# ---------------------------------------------------------------------------


#: What a load of each width yields, and the 32-bit range.
_RANGE_OF_SIZE = {size: _scalar(0, (1 << (8 * size)) - 1)
                  for size in MEM_SIZES.values()}
_U32_RANGE = _scalar(0, U32_MAX)


def _clamp32(value: Scalar) -> Scalar:
    if value.umax <= U32_MAX:
        return value
    return _U32_RANGE


def _arith(base: str, is32: bool):
    """The scalar transfer of the ALU operation ``base``, 64- or 32-bit:
    a function of the operands' ranges to the result's."""
    top = U32_MAX if is32 else U64_MAX
    unknown = _scalar(0, top)
    mask = 31 if is32 else 63

    if base == "add":
        def arith(a, b):
            if a.umax + b.umax > top:
                return unknown
            return _scalar(a.umin + b.umin, a.umax + b.umax)
    elif base == "sub":
        def arith(a, b):
            if a.umin < b.umax:
                return unknown
            return _scalar(a.umin - b.umax, a.umax - b.umin)
    elif base == "mul":
        def arith(a, b):
            if a.umax * b.umax > top:
                return unknown
            return _scalar(a.umin * b.umin, a.umax * b.umax)
    elif base == "and":
        def arith(a, b):
            return _scalar(0, min(a.umax, b.umax))
    elif base in ("or", "xor"):
        def arith(a, b):
            bits = max(a.umax, b.umax).bit_length()
            return _scalar(0, (1 << bits) - 1) if bits < 64 else unknown
    elif base == "lsh":
        def arith(a, b):
            by = b.umin & mask
            if b.umin != b.umax or a.umax << by > top:
                return unknown
            return _scalar(a.umin << by, a.umax << by)
    elif base in ("rsh", "arsh"):
        # An arithmetic shift equals the logical one only below the
        # operand's sign bit, which for a 32-bit operand is bit 31.
        below = (2**31 if is32 else 2**63) if base == "arsh" else 2**64

        def arith(a, b):
            if b.umin != b.umax or a.umax >= below:
                return unknown
            by = b.umin & mask
            return _scalar(a.umin >> by, a.umax >> by)
    elif base in ("div", "mod"):
        def arith(a, b):
            if b.umin != b.umax or b.umin == 0:
                return unknown
            if base == "div":
                return _scalar(a.umin // b.umin, a.umax // b.umin)
            return a if a.umax < b.umin else _scalar(0, b.umin - 1)
    else:
        raise ValueError(base)
    if not is32:
        return arith

    def arith32(a, b):
        result = arith(_clamp32(a), _clamp32(b))
        return _U32_RANGE if result.umax > U32_MAX else result
    return arith32


_ARITH = {(base, is32): _arith(base, is32)
          for base in _ALU_BASES - {"mov", "neg"} for is32 in (False, True)}


# Branch refinement: per comparison, a function of the two operands'
# ranges to their ranges on the edge where the comparison holds, or None
# if it cannot hold.

def _jeq(a: Scalar, b: Scalar):
    lo = max(a.umin, b.umin)
    hi = min(a.umax, b.umax)
    if lo > hi:
        return None
    both = _scalar(lo, hi)
    return both, both


def _jne(a: Scalar, b: Scalar):
    a_const = a.umin == a.umax
    b_const = b.umin == b.umax
    if a_const and b_const and a.umin == b.umin:
        return None
    # Shave the boundary when one side is constant.
    new_a, new_b = a, b
    if b_const and not a_const:
        if a.umin == b.umin:
            new_a = _scalar(a.umin + 1, a.umax)
        elif a.umax == b.umin:
            new_a = _scalar(a.umin, a.umax - 1)
    if a_const and not b_const:
        if b.umin == a.umin:
            new_b = _scalar(b.umin + 1, b.umax)
        elif b.umax == a.umin:
            new_b = _scalar(b.umin, b.umax - 1)
    return new_a, new_b


# An operand whose range the comparison does not narrow is kept as it is.

def _jgt(a: Scalar, b: Scalar):  # a > b
    if a.umax <= b.umin:
        return None
    return (a if a.umin > b.umin else _scalar(b.umin + 1, a.umax),
            b if b.umax < a.umax else _scalar(b.umin, a.umax - 1))


def _jge(a: Scalar, b: Scalar):  # a >= b
    if a.umax < b.umin:
        return None
    return (a if a.umin >= b.umin else _scalar(b.umin, a.umax),
            b if b.umax <= a.umax else _scalar(b.umin, a.umax))


def _jlt(a: Scalar, b: Scalar):  # a < b
    if a.umin >= b.umax:
        return None
    return (a if a.umax < b.umax else _scalar(a.umin, b.umax - 1),
            b if b.umin > a.umin else _scalar(a.umin + 1, b.umax))


def _jle(a: Scalar, b: Scalar):  # a <= b
    if a.umin > b.umax:
        return None
    return (a if a.umax <= b.umax else _scalar(a.umin, b.umax),
            b if b.umin >= a.umin else _scalar(a.umin, b.umax))


def _signed(unsigned):
    """A signed comparison: when both ranges sit in the non-negative half
    it coincides with ``unsigned``; otherwise give up refinement but keep
    the edge feasible."""
    def refine(a: Scalar, b: Scalar):
        if a.umax < 2**63 and b.umax < 2**63:
            return unsigned(a, b)
        return a, b
    return refine


_EDGES = {"jeq": _jeq, "jne": _jne, "jgt": _jgt, "jge": _jge, "jlt": _jlt,
          "jle": _jle, "jsgt": _signed(_jgt), "jsge": _signed(_jge),
          "jslt": _signed(_jlt), "jsle": _signed(_jle)}

_NEGATION = {
    "jeq": "jne", "jne": "jeq",
    "jgt": "jle", "jle": "jgt",
    "jge": "jlt", "jlt": "jge",
    "jsgt": "jsle", "jsle": "jsgt",
    "jsge": "jslt", "jslt": "jsge",
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
                old.off_min <= new.off_min and old.off_max >= new.off_max)
    return False


def _subsumes(old: State, new: State) -> bool:
    # A transfer function shares the registers it leaves alone between
    # states, so only the registers that are not one object are compared.
    for old_val, new_val in compress(zip(old.regs, new.regs),
                                     map(is_not, old.regs, new.regs)):
        if old_val.__class__ is Scalar and new_val.__class__ is Scalar:
            if old_val.umin > new_val.umin or old_val.umax < new_val.umax:
                return False
        elif not _value_subsumes(old_val, new_val):
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


def proof_context(helpers: HelperRegistry) -> dict:
    """What a verdict depends on besides the program and its ctx layout:
    the helper signatures, which decide how calls type-check.  A program
    proved against one context may fault under another, so whoever relies
    on ``program.verified`` compares this with ``program.verified_against``
    (the install ioctl re-verifies on a mismatch; the block tier compiles
    its guards back in, see `Proof.covers`).
    """
    return dict(helpers.specs)


def verify(program: Program, helpers: HelperRegistry,
           state_budget: int = 200_000) -> VerifierStats:
    """Verify ``program``; raises :class:`VerifierError` on rejection.

    On success, marks ``program.verified``, attaches the `Proof` (what was
    established per instruction, and what it was made for and against) as
    ``program.proof`` and returns exploration stats.
    """
    return Verifier(program, helpers, state_budget).run()
