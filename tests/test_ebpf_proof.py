"""The proof the verifier emits, and the fences around spending it.

The block tier drops the run-time guards of every site the program's
`Proof` covers.  What keeps that safe, each pinned here by name:

(a) without a proof the generated source is, byte for byte, the fully
    guarded source (``tests/data/guarded_block_source.txt``), so a forged
    ``verified`` flag buys nothing;
(b) the proof checker (``proofcheck.py``) catches a fact a run
    contradicts (it runs over the corpus, the generated programs and the
    installable programs from ``test_ebpf_verifier_corpus.py`` and
    ``test_ebpf_properties.py``);
(c) those differential tests run three ways (interp / block without the
    proof / block with it);
(d) a proof that no longer covers the program (an instruction replaced,
    the layout swapped, another registry) is not spent;
(e) a proven pointer is kept as a bare offset only while nothing but
    proven sites and bare ``ptr +/- scalar`` read it inside its block, and
    the budget tail of the merge program matches the interpreter at every
    kind of limit.
"""

import dataclasses
import hashlib
import inspect
import re
import struct
from pathlib import Path

import pytest

from chainutil import WALKER_SRC, build_machine, linked_file_bytes
from proofcheck import checked_run, three_ways
from repro.compact.programs import sstable_merge_program
from repro.core.hooks import (CTX_ARG0, CTX_DATA_LEN, CTX_SIZE,
                              storage_ctx_layout, storage_helpers)
from repro.core.library import (index_traversal_program,
                                linked_list_program,
                                scan_aggregate_program,
                                wisckey_get_program)
from repro.ebpf import (CtxField, CtxLayout, FieldKind, Program,
                        Verifier, Vm, assemble, verify)
from repro.ebpf.helpers import HelperRegistry, HelperSpec
from repro.ebpf.verifier import (NOT_INIT, Proof, Ptr, Scalar, _join,
                                 proof_context)
from repro.ebpf.vm import _code_inputs, _generate, pointer_values
from repro.errors import VerifierError, VmFault
from repro.structures import FANOUT_MAX, TOMBSTONE, SsTable
from repro.structures.pages import MemoryBackend, PAGE_SIZE

HELPERS = storage_helpers()


def probe_registry(nargs):
    """A registry whose one helper, ``probe`` (id 40), reads ``nargs``
    argument registers and returns 100."""
    helpers = HelperRegistry()
    helpers.register(HelperSpec(40, "probe", nargs), lambda vm, *args: 100)
    return helpers


def layout(data_size=64):
    return CtxLayout([
        CtxField("a", 0, 8),
        CtxField("b", 8, 8),
        CtxField("out", 16, 8, writable=True),
        CtxField("data", 24, 8, FieldKind.POINTER, region="data",
                 region_size=data_size),
        CtxField("buf", 32, 8, FieldKind.POINTER, region="buf",
                 region_size=32, writable=True),
    ])


#: One site of each kind the code generator specialises: a ctx load, a
#: region load, an ALU op, a branch, a ctx store and a helper call.
SITES = """
    ldxdw r2, [r1+24]
    ldxb  r3, [r2+3]
    add   r3, 1
    jgt   r3, 9, skip
    stxdw [r1+16], r3
skip:
    mov   r1, r3
    call  compact_drop
    mov   r0, 0
    exit
"""
GUARDED_SOURCE = (Path(__file__).parent / "data"
                  / "guarded_block_source.txt").read_text()


def program_of(source, helpers=HELPERS, name="forged", **layout_kwargs):
    return Program(assemble(source, helpers.names()),
                   layout(**layout_kwargs), name=name)


def source_of(program, helpers=HELPERS):
    """The block tier's source for ``program`` with those helpers (the
    proof spent only if `_code_inputs`, which `Vm` asks, says it covers)."""
    return _generate(program, 1_000_000, *_code_inputs(
        program, helpers))[0] + "\n"


def outcome(program, mode, helpers=HELPERS, data_size=64):
    """The result, or the fault as ``(reason, pc)``; anything else the
    run raises (an IndexError out of unguarded code) propagates."""
    vm = Vm(program, helpers, mode=mode)
    try:
        return vm.run(bytearray(40), {"data": bytearray(data_size),
                                      "buf": bytearray(32)})
    except VmFault as fault:
        return fault.reason, fault.pc


# ---------------------------------------------------------------------------
# The artifact
# ---------------------------------------------------------------------------


def test_verify_attaches_a_proof_bound_to_what_it_was_made_for():
    program = program_of(SITES)
    assert program.proof is None and program.verified_against is None
    verify(program, HELPERS)
    proof = program.proof
    assert isinstance(proof, Proof)
    assert proof.instructions == tuple(program.instructions)
    assert proof.layout == tuple(program.ctx_layout.fields)
    assert proof.context == proof_context(HELPERS) \
        == program.verified_against
    assert proof.covers(program, proof_context(HELPERS))
    assert not proof.covers(program, proof_context(probe_registry(1)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        proof.facts = ()


def test_facts_are_per_register_read_and_hold_no_states():
    program = program_of(SITES)
    verify(program, HELPERS)
    facts = program.proof.facts
    assert len(facts) == len(program)
    ctx, data = Ptr("ctx", 40), Ptr("data", 64)
    byte = Scalar(0, 255)
    wanted = [
        {1: ctx},                           # ldxdw r2, [r1+24]
        {2: data},                          # ldxb  r3, [r2+3]
        {3: byte},                          # add   r3, 1
        {3: Scalar(1, 256)},                # jgt   r3, 9, skip
        {1: ctx, 3: Scalar(1, 9)},          # stxdw [r1+16], r3
        {3: Scalar(1, 256)},                # mov   r1, r3     (both paths)
        {1: Scalar(1, 256)},                # call  compact_drop
        {},                                 # mov   r0, 0
        {},                                 # exit
    ]
    for known, expected in zip(facts, wanted):
        assert {reg: fact for reg, fact in enumerate(known)
                if fact is not None} == expected
        assert all(fact is None or type(fact) in (Scalar, Ptr)
                   for fact in known)


def test_an_instruction_no_state_reaches_has_no_fact():
    # The clamp of the merge loop (``mov r8, 254``) is dead: the range
    # proof of ``i < nkeys <= 255`` makes its guard always jump over it.
    program = sstable_merge_program()
    verify(program, storage_helpers())
    clamp = program.instructions[12]
    assert (clamp.opcode, clamp.dst, clamp.imm) == ("mov", 8, 254)
    assert program.proof.facts[12] is None
    assert program.proof.facts[11] is not None
    # ... and its block is the block it has without any proof.
    def clamp_block(built):
        lines = source_of(built, storage_helpers()).splitlines()
        at = lines.index("       _pc = 12")
        return lines[at - 2:at + 4]

    assert clamp_block(program)[-1].strip() == "r8 = 254"
    assert clamp_block(program) == clamp_block(
        dataclasses.replace(program, proof=None))


def test_join_is_the_hull_or_nothing():
    assert _join([Scalar(3, 5), Scalar(4, 9), Scalar(4, 4)]) == Scalar(3, 9)
    data = Ptr("data", 64, 8, 16)
    assert _join([data]) == data
    assert _join([data, Ptr("data", 64, 0, 8)]) == Ptr("data", 64, 0, 16)
    for other in (Scalar(0, 0), NOT_INIT, Ptr("buf", 32, 8, 16),
                  Ptr("data", 32, 8, 16)):
        assert _join([data, other]) is None
        assert _join([other, data]) is None
    assert _join([NOT_INIT]) is None


def test_facts_join_over_every_explored_state():
    # Two paths reach ``add r4, r3`` with r3 = 8 and r3 = 24.
    program = program_of("""
        ldxdw r2, [r1+0]
        mov   r3, 8
        jeq   r2, 0, join
        mov   r3, 24
    join:
        ldxdw r4, [r1+24]
        add   r4, r3
        ldxb  r0, [r4+0]
        exit
    """)
    verify(program, HELPERS)
    assert program.proof.facts[5][3] == Scalar(8, 24)
    assert program.proof.facts[6][4] == Ptr("data", 64, 8, 24)


def test_no_new_parameter_selects_elision():
    assert str(inspect.signature(Vm.__init__)) == (
        "(self, program: 'Program', helpers: 'HelperRegistry', mode: 'str' = "
        "'interp', max_instructions: 'int' = 1000000, require_verified: "
        "'bool' = True)")
    assert str(inspect.signature(verify)) == (
        "(program: 'Program', helpers: 'HelperRegistry', state_budget: "
        "'int' = 200000) -> 'VerifierStats'")
    assert str(inspect.signature(Verifier.__init__)) == (
        "(self, program: 'Program', helpers: 'HelperRegistry', "
        "state_budget: 'int' = 200000)")


# ---------------------------------------------------------------------------
# (a) No proof, no elision
# ---------------------------------------------------------------------------


def test_without_a_proof_the_generated_source_is_the_guarded_source():
    forged = program_of(SITES)
    forged.verified = True  # the verifier never saw it
    assert source_of(forged) == GUARDED_SOURCE
    vm = Vm(forged, HELPERS, mode="block")
    assert vm.guarded == {0, 1, 2, 3, 4, 6}

    proven = program_of(SITES)
    verify(proven, HELPERS)
    # No register's class is tested (the helper's return value still is).
    assert not re.search(r"\br\d+\.__class__", source_of(proven))
    assert "_load(" not in source_of(proven)
    assert Vm(proven, HELPERS, mode="block").guarded \
        == frozenset()
    # The same program with its proof taken away: guarded again.
    assert source_of(dataclasses.replace(proven, proof=None)) \
        == GUARDED_SOURCE


def test_stack_sites_keep_their_guards():
    # The proof covers them (the checker asserts its facts there too), but
    # a stack slot may hold a spilled pointer, so the compiled code keeps
    # every check at stack sites.
    program = program_of("""
        mov   r2, 77
        stxw  [r10-4], r2
        ldxw  r0, [r10-4]
        exit
    """)
    verify(program, HELPERS)
    vm = Vm(program, HELPERS, mode="block")
    # The stack store and the stack load.
    assert vm.guarded == {1, 2}
    assert program.proof.facts[2][10] == Ptr("stack", 512, 512, 512)
    assert checked_run(Vm(program, HELPERS),
                       bytearray(40), {"data": bytearray(64),
                                       "buf": bytearray(32)}) \
        == vm.run(bytearray(40), {"data": bytearray(64),
                                  "buf": bytearray(32)})


# ---------------------------------------------------------------------------
# (b) The checker checks
# ---------------------------------------------------------------------------


def test_proof_checker_catches_a_wrong_fact():
    program = program_of(SITES)
    verify(program, HELPERS)
    regions = {"data": bytearray(64), "buf": bytearray(32)}
    regions["data"][3] = 200
    vm = Vm(program, HELPERS)
    assert checked_run(vm, bytearray(40), regions).return_value == 0

    def tampered(pc, reg, fact):
        facts = list(program.proof.facts)
        known = list(facts[pc])
        known[reg] = fact
        facts[pc] = tuple(known)
        return Vm(dataclasses.replace(program, proof=dataclasses.replace(
            program.proof, facts=tuple(facts))), HELPERS)

    for pc, reg, fact, complaint in (
            (2, 3, Scalar(0, 100), "holds 200, outside the range"),
            (2, 3, Ptr("data", 64), "holds 200, not a pointer"),
            (1, 2, Scalar(0, 0), "not an integer"),
            (1, 2, Ptr("buf", 32), "points into Region('data', 64B)"),
            (1, 2, Ptr("data", 128), "points into Region('data', 64B)"),
            (1, 2, Ptr("data", 64, 8, 16), "points at offset 0")):
        with pytest.raises(AssertionError, match="is proven") as caught:
            checked_run(tampered(pc, reg, fact), bytearray(40), regions)
        assert complaint in str(caught.value)
    unreached = list(program.proof.facts)
    unreached[4] = None
    with pytest.raises(AssertionError, match="pc 4 .stxdw. runs, but"):
        regions["data"][3] = 2
        checked_run(Vm(dataclasses.replace(
            program, proof=dataclasses.replace(
                program.proof, facts=tuple(unreached))),
            HELPERS), bytearray(40), regions)


def test_arsh32_keeps_the_sign_bit_of_the_low_word():
    # Found by the proof checker, as a violated fact on a run that did not
    # fault: the verifier took ``arsh32`` of any 32-bit value for a logical
    # shift (it tested the sign at bit 63), proving r2 in [0, 1] here while
    # the VM computes 0xffffffff for any r2 >= 2**31.  As an index that is
    # an out-of-bounds read in a "verified" program.
    program = program_of("""
        ldxdw  r2, [r1+0]
        arsh32 r2, 31
        ldxdw  r3, [r1+24]
        add    r3, r2
        ldxb   r0, [r3+0]
        exit
    """)
    with pytest.raises(VerifierError, match="offset adjustment unbounded"):
        verify(program, HELPERS)
    # Below the low word's sign bit the two shifts are the same shift.
    narrow = program_of("""
        ldxdw  r2, [r1+0]
        and    r2, 127
        arsh32 r2, 1
        ldxdw  r3, [r1+24]
        add    r3, r2
        ldxb   r0, [r3+0]
        exit
    """)
    verify(narrow, HELPERS)
    assert narrow.proof.facts[4][2] == Scalar(0, 63)


# ---------------------------------------------------------------------------
# (d) A proof that no longer covers the program is not spent
# ---------------------------------------------------------------------------

LAST_BYTE = """
    ldxdw r2, [r1+24]
    ldxb  r3, [r2+63]
    mov   r0, 0
    exit
"""


def assert_guarded_everywhere(program, helpers=HELPERS):
    assert source_of(program, helpers) == source_of(
        dataclasses.replace(program, proof=None), helpers)
    assert "__class__" in source_of(program, helpers)


def test_stale_proof_replaced_instruction():
    program = program_of(LAST_BYTE)
    verify(program, HELPERS)
    spent = Vm(program, HELPERS, mode="block")
    assert not spent.guarded
    program.instructions[1] = dataclasses.replace(program.instructions[1],
                                                  offset=64)
    assert not program.proof.covers(program, proof_context(HELPERS))
    assert_guarded_everywhere(program)
    assert Vm(program, HELPERS, mode="block").guarded \
        == {0, 1}
    # The forged-style fault, in both tiers; not an IndexError out of
    # ``_D_data[64]``.
    assert outcome(program, "block") == outcome(program, "interp") == \
        ("read [64, 65) out of bounds of 'data' (64B)", -1)


def test_stale_proof_swapped_layout():
    program = program_of(LAST_BYTE)
    verify(program, HELPERS)
    program.ctx_layout = layout(data_size=32)
    assert not program.proof.covers(program, proof_context(HELPERS))
    assert_guarded_everywhere(program)
    assert outcome(program, "block", data_size=32) \
        == outcome(program, "interp", data_size=32) \
        == ("read [63, 64) out of bounds of 'data' (32B)", -1)


def test_stale_proof_other_helper_spec():
    # Proved against a ``probe`` that reads r1 alone, so r2 may hold the
    # data pointer at the call; run under a registry whose ``probe``
    # reads r2 too.
    program = program_of("""
        ldxdw r2, [r1+24]
        mov   r1, 1
        call  probe
        mov   r0, 0
        exit
    """, helpers=probe_registry(1))
    verify(program, probe_registry(1))
    assert program.proof.facts[2][1] == Scalar(1, 1)
    assert not Vm(program, probe_registry(1), mode="block").guarded
    other = probe_registry(2)
    assert_guarded_everywhere(program, other)
    assert outcome(program, "block", helpers=other) \
        == outcome(program, "interp", helpers=other) \
        == ("helper arg 2 is a pointer, expected scalar", 2)


def test_verifying_again_replaces_the_code_compiled_from_the_old_proof():
    program = program_of(LAST_BYTE)
    verify(program, HELPERS)
    first = Vm(program, HELPERS, mode="block")
    again = Vm(program, HELPERS, mode="block")
    assert first._compiled.__code__ is again._compiled.__code__
    program.instructions[2] = dataclasses.replace(program.instructions[2],
                                                  imm=5)
    verify(program, HELPERS)
    renewed = Vm(program, HELPERS, mode="block")
    assert renewed._compiled.__code__ is not first._compiled.__code__
    assert outcome(program, "block").return_value == 5


# ---------------------------------------------------------------------------
# (e) Pointers kept as offsets
# ---------------------------------------------------------------------------

#: ``data + a`` (a masked to 0-15) made twice: at pc 5 in r5, read by one
#: load and then dead, and at pc 8 in r3, read by a load and then by each
#: fence below.  r7, the data pointer loaded at pc 1, is read only by the
#: two ``add``s.
OFFSETS = """
    mov   r6, r1
    ldxdw r7, [r6+24]
    ldxdw r4, [r6+0]
    and   r4, 15
    mov   r5, r4
    add   r5, r7
    ldxb  r0, [r5+0]
    mov   r3, r4
    add   r3, r7
    ldxb  r0, [r3+1]
"""

#: Each way of reading r3 that keeps its `Pointer` built: (the rest of the
#: program, the pcs kept as offsets, or None where the verifier rejects
#: the program and it runs forged).
FENCES = {
    "live into the next block": ("""
        jeq   r0, 7, skip
        ldxb  r0, [r3+2]
    skip:
        exit
    """, {1, 5}),
    "live into a block emitted after one that remakes it": ("""
        jeq   r0, 7, other
        mov   r3, r4
        add   r3, r7
        ldxb  r0, [r3+2]
        exit
    other:
        ldxb  r0, [r3+3]
        exit
    """, {5, 12}),
    "passed to a helper": ("""
        mov   r1, r3
        call  compact_drop
        exit
    """, None),
    "spilled to the stack": ("""
        stxdw [r10-8], r3
        ldxdw r2, [r10-8]
        ldxb  r0, [r2+3]
        exit
    """, {1, 5}),
    "compared in a branch": ("""
        jeq   r3, r7, skip
        mov   r0, 1
    skip:
        exit
    """, {5}),
    "copied by mov": ("""
        mov   r2, r3
        ldxb  r0, [r2+2]
        exit
    """, {1, 5}),
    "left in r0 at exit": ("""
        mov   r0, r3
        exit
    """, None),
    "used at a guarded site": ("""
        ldxdw r0, [r3+60]
        exit
    """, None),
}


def offsets_outcome(program, mode, a):
    """The result or the fault as ``(reason, pc)``, and the ctx and buf
    bytes, of one run over a data region holding 0-63."""
    vm = Vm(program, HELPERS, mode=mode)
    ctx = bytearray(40)
    ctx[0:8] = a.to_bytes(8, "little")
    regions = {"data": bytearray(range(64)), "buf": bytearray(32)}
    try:
        result = vm.run(ctx, regions)
    except VmFault as fault:
        result = fault.reason, fault.pc
    return result, bytes(ctx), bytes(regions["buf"])


def test_a_pointer_read_only_for_its_offset_is_never_built():
    program = program_of(OFFSETS + "exit")
    verify(program, HELPERS)
    vm = Vm(program, HELPERS, mode="block")
    assert vm.unboxed == {1, 5, 8} and not vm.guarded
    source = source_of(program)
    assert "Pointer(" not in source
    assert "_q5 = _q7 + r5" in source and "r0 = _D_data[_q3 + 1]" in source
    for a in (0, 6, 15, 2**64 - 1):
        interp, guarded, proven = (offsets_outcome(built, mode, a)
                                   for _way, built, mode in three_ways(program))
        assert interp == guarded == proven, a


@pytest.mark.parametrize("fence", sorted(FENCES))
def test_a_pointer_read_any_other_way_is_built(fence):
    rest, unboxed = FENCES[fence]
    program = program_of(OFFSETS + rest)
    if unboxed is None:
        with pytest.raises(VerifierError):
            verify(program, HELPERS)
        program.verified = True  # forged: every way runs it all the same
        unboxed = set()
    else:
        verify(program, HELPERS)
    assert Vm(program, HELPERS, mode="block").unboxed \
        == unboxed
    for a in (5, 6, 15):
        interp, guarded, proven = (offsets_outcome(built, mode, a)
                                   for _way, built, mode in three_ways(program))
        assert interp == guarded == proven, a


class _CountingSink:
    """Stands in for the compaction merge sink: counts what it is given."""

    def __init__(self):
        self.count = 0

    def emit(self, key, value):
        self.count += 1
        return self.count

    def drop(self, key):
        return self.emit(key, None)


def merge_outcome(program, helpers, mode, page, limit):
    """Everything observable of the merge program run over ``page`` with
    tombstones dropped, under the instruction budget ``limit``."""
    vm = Vm(program, helpers, mode=mode,
            max_instructions=limit)
    vm.compact_sink = sink = _CountingSink()
    ctx = bytearray(CTX_SIZE)
    struct.pack_into("<QQ", ctx, CTX_DATA_LEN, PAGE_SIZE, PAGE_SIZE)
    struct.pack_into("<Q", ctx, CTX_ARG0, 1)
    scratch = bytearray(64)
    try:
        result = vm.run(ctx, {"data": bytearray(page), "scratch": scratch})
    except VmFault as fault:
        result = fault.reason, fault.pc
    return result, bytes(ctx), bytes(scratch), sink.count


def test_merge_budget_tail_matches_the_interpreter_at_every_limit():
    # A full page of 255 entries, every seventh a tombstone, so both the
    # emit and the drop legs run.  The block tier charges a block whole
    # on entry and hands the block the budget runs out in to the
    # interpreter from its first instruction, with every register: where
    # a pointer is kept as an offset, only dead registers may go stale.
    # Every limit near either end, and every 13th between: the loop
    # repeats every 7 entries (6 emits of 17 instructions, a drop of 20:
    # 122, prime to 13), so the stride lands on every instruction of it.
    helpers = storage_helpers()
    program = sstable_merge_program(PAGE_SIZE, 64)
    verify(program, helpers)
    assert Vm(program, helpers, mode="block").unboxed
    backend = MemoryBackend()
    SsTable.build(backend, [(key * 5, TOMBSTONE if key % 7 == 3
                             else key * 11 + 1) for key in range(1500)])
    page = backend.read(PAGE_SIZE, PAGE_SIZE)
    assert struct.unpack_from("<H", page, 6)[0] == 255
    full = merge_outcome(program, helpers, "interp", page, 10**6)
    total = full[0].instructions
    assert full[3] == 255 and total > 4000
    limits = sorted(set(range(1, 300)) | set(range(300, total - 300, 13))
                    | set(range(total - 300, total + 3)))
    for limit in limits:
        assert merge_outcome(program, helpers, "block", page, limit) \
            == merge_outcome(program, helpers, "interp", page, limit), limit


# ---------------------------------------------------------------------------
# Satellites
# ---------------------------------------------------------------------------


#: The six programs ``verify_install`` makes ready: (memory sites, sites
#: compiled without guards, digest of ``proof.facts``).  None touches the
#: stack, so the proof covers every one; a verifier precision regression
#: that puts a guard back fails here by name, not as a slower benchmark.
#: The digests were computed at the commit before ``Ptr`` lost its
#: ``maybe_null`` field, with that field (False in every fact) left out:
#: a verifier change that moves any fact fails by name before it moves
#: generated code or a golden.
INSTALLABLE = {
    "index16": (lambda: index_traversal_program(fanout=16), 19, 19,
                "d51bb5732b3cb0a9"),
    "index6": (lambda: index_traversal_program(fanout=6), 17, 17,
               "ff8cd967c7a15e4e"),
    "wisckey": (lambda: wisckey_get_program(fanout=FANOUT_MAX), 33, 33,
                "25af5c155cc50a36"),
    "linked_list": (linked_list_program, 8, 8, "52983c6199d452ef"),
    "scan_aggregate": (lambda: scan_aggregate_program(fanout=64), 22, 22,
                       "b81a361c3a422d1c"),
    "sstable_merge": (lambda: sstable_merge_program(PAGE_SIZE, 64,
                                                    FANOUT_MAX), 19, 19,
                      "79711717bf61e107"),
}


def facts_digest(facts):
    """A digest of every fact, each with its class and all its fields."""
    def encode(fact):
        return None if fact is None else \
            (type(fact).__name__, dataclasses.astuple(fact))
    rows = [None if known is None else tuple(map(encode, known))
            for known in facts]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(INSTALLABLE))
def test_installable_program_facts_are_pinned(name):
    make_program, _sites, _bare, digest = INSTALLABLE[name]
    program = make_program()
    verify(program, storage_helpers())
    assert facts_digest(program.proof.facts) == digest


@pytest.mark.parametrize("name", sorted(INSTALLABLE))
def test_installable_program_memory_sites_are_proven(name):
    make_program, sites, bare, _digest = INSTALLABLE[name]
    helpers = storage_helpers()
    program = make_program()
    verify(program, helpers)
    vm = Vm(program, helpers, mode="block")
    memory = [pc for pc, insn in enumerate(program.instructions)
              if insn.opcode.startswith(("ldx", "st"))]
    assert (len(memory), sum(pc not in vm.guarded for pc in memory)) \
        == (sites, bare)
    # Nor does any ALU op, branch or call of theirs keep a guard.
    assert not vm.guarded


#: Per installable program: its pointer values (`pointer_values`), how many
#: of them the block tier never builds (``Vm.unboxed``), and how many
#: ``Pointer(`` its generated source still has.  Every one still built is
#: live into another block: each program's page pointer, read past a
#: branch, and scan_aggregate's scratch pointer and its entry pointer,
#: read again after the key-range branches.
BUILT = {
    "index16": (7, 6, 1),
    "index6": (5, 4, 1),
    "wisckey": (12, 11, 1),
    "linked_list": (1, 0, 1),
    "scan_aggregate": (3, 0, 3),
    "sstable_merge": (5, 4, 1),
}


@pytest.mark.parametrize("name", sorted(INSTALLABLE))
def test_installable_program_sources_build_few_pointers(name):
    helpers = storage_helpers()
    program = INSTALLABLE[name][0]()
    verify(program, helpers)
    source = _generate(program, 1_000_000,
                       *_code_inputs(program, helpers))[0]
    # Every site is proven, so every access is a struct call or an index.
    assert "_from_bytes(" not in source and ".to_bytes(" not in source
    assert (len(pointer_values(program, program.proof.facts)),
            len(Vm(program, helpers, mode="block").unboxed),
            source.count("Pointer(")) == BUILT[name]


def test_one_install_runs_the_liveness_fixpoint_once(monkeypatch):
    """``open_chain`` of a program never verified verifies it and compiles
    its block tier under the proof; the code generator reads the dead sets
    the proof carries, so the backward liveness fixpoint runs once."""
    import repro.ebpf.verifier as verifier_module
    import repro.ebpf.vm as vm_module
    runs = []
    fixpoint = verifier_module.dead_registers

    def counted(*args):
        runs.append(args)
        return fixpoint(*args)
    monkeypatch.setattr(verifier_module, "dead_registers", counted)
    monkeypatch.setattr(vm_module, "dead_registers", counted, raising=False)
    _sim, kernel, bpf = build_machine()
    kernel.create_file("/list", linked_file_bytes([0, 1, 2]))
    program = Program(assemble(WALKER_SRC, bpf.helpers.names()),
                      storage_ctx_layout(4096, 256), name="walker")
    handle = kernel.run_syscall(
        bpf.open_chain(kernel.spawn_process(), "/list", program))
    vm = handle.installation.vm
    assert program.proof is not None and vm.mode == "block"
    assert not vm.guarded
    assert len(runs) == 1
