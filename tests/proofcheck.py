"""The proof checker: a run that asserts the verifier's facts as it goes.

``checked_run`` executes a verified program with the interpreter's own
``_step`` and, *before* each instruction, compares what the program's
`Proof` claims for that pc with the registers the run actually holds:
the runtime class, the region (by identity), the offset within
``[off_min, off_max]``, the integer within ``[umin, umax]``; an
instruction executed at a pc the proof calls unreached is a violation
too.

The block tier drops the run-time guard of every site a fact covers, so
a wrong fact there is a memory-safety bug with nothing left to catch it.
Here it is caught as a violated fact, on a run that need not fault at
all: a verifier soundness bug found without a memory fault.

``three_ways`` names the three ways the differential tests run a program:
the interpreter, the block tier without the proof, the block tier
spending it.
"""

import dataclasses

from repro.ebpf.verifier import Ptr, Scalar
from repro.ebpf.vm import Pointer, _step
from repro.errors import VmFault


def _violation(state, fact, value):
    """Why ``value`` contradicts ``fact``, or None if it does not."""
    if type(fact) is Scalar:
        if type(value) is not int:
            return f"holds {value!r}, not an integer"
        if not fact.umin <= value <= fact.umax:
            return f"holds {value}, outside the range"
        return None
    assert type(fact) is Ptr
    if type(value) is not Pointer:
        return f"holds {value!r}, not a pointer"
    region = value.region
    if fact.region == "ctx":
        # Vm.run's entry check is ``len(ctx) >= layout size``.
        same = region is state.ctx_region and len(region.data) >= fact.size
    elif fact.region == "stack":
        same = region is state.stack_region and \
            len(region.data) == fact.size
    else:
        same = region is state.regions.get(fact.region) and \
            len(region.data) == fact.size
    if not same:
        return f"points into {region!r}"
    if not fact.off_min <= value.offset <= fact.off_max:
        return f"points at offset {value.offset}, outside the range"
    return None


def checked_run(vm, ctx, regions):
    """``vm.run(ctx, regions)`` for an ``interp`` Vm whose program carries
    a proof, asserting the proof as it goes: returns the `ExecutionResult`
    or raises the `VmFault` as `Vm.run` would, and raises AssertionError,
    listing them, if the run contradicted any fact."""
    program = vm.program
    proof = program.proof
    assert vm.mode == "interp" and proof is not None
    assert proof.instructions == tuple(program.instructions)
    state = vm._enter(ctx, regions)
    insns = program.instructions
    violations = []
    pc = 0
    try:
        while pc is not None:
            if state.executed >= vm.max_instructions:
                raise VmFault("instruction budget exhausted", pc)
            facts = proof.facts[pc]
            if facts is None:
                violations.append(f"pc {pc} ({insns[pc].opcode}) runs, but "
                                  "the proof has it unreached")
            else:
                for reg, fact in enumerate(facts):
                    if fact is None:
                        continue
                    why = _violation(state, fact, state.regs[reg])
                    if why is not None:
                        violations.append(
                            f"pc {pc} ({insns[pc].opcode}): r{reg} is "
                            f"proven {fact!r} but {why}")
            state.executed += 1
            pc = _step(state, insns[pc], pc)
        return state.result()
    finally:
        assert not violations, "\n".join(violations)


def three_ways(program):
    """``(label, program, mode)`` for the reference, the block tier kept
    from the proof (a copy of the program without it) and the block tier
    spending it.  A program the verifier rejected has no proof to strip:
    its last two ways are the same guarded code."""
    return (("interp", program, "interp"),
            ("block, no proof", dataclasses.replace(program, proof=None),
             "block"),
            ("block, proof", program, "block"))
