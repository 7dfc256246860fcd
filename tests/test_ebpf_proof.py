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
    the layout swapped, another registry) is not spent.
"""

import dataclasses
import hashlib
import inspect
from pathlib import Path

import pytest

from proofcheck import checked_run
from repro.compact.programs import sstable_merge_program
from repro.core.hooks import storage_helpers
from repro.core.library import (index_traversal_program,
                                linked_list_program,
                                scan_aggregate_program,
                                wisckey_get_program)
from repro.ebpf import (CtxField, CtxLayout, FieldKind, HashMap, Program,
                        Verifier, Vm, assemble, base_registry, verify)
from repro.ebpf.helpers import ArgKind, HelperRegistry, HelperSpec, RetKind
from repro.ebpf.verifier import (NOT_INIT, Proof, Ptr, Scalar, _join,
                                 proof_context)
from repro.ebpf.vm import VmEnvironment, _code_inputs, _generate
from repro.errors import VerifierError, VmFault
from repro.structures import FANOUT_MAX
from repro.structures.pages import PAGE_SIZE

HELPERS = base_registry()


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
    call  trace
    mov   r0, 0
    exit
"""
GUARDED_SOURCE = (Path(__file__).parent / "data"
                  / "guarded_block_source.txt").read_text()


def program_of(source, helpers=HELPERS, name="forged", **layout_kwargs):
    return Program(assemble(source, helpers.names()),
                   layout(**layout_kwargs), name=name)


def source_of(program, helpers=HELPERS, maps=None):
    """The block tier's source for ``program`` in that environment (the
    proof spent only if `_code_inputs`, which `Vm` asks, says it covers)."""
    return _generate(program, 1_000_000, *_code_inputs(
        program, VmEnvironment(helpers, maps=maps)))[0] + "\n"


def outcome(program, mode, helpers=HELPERS, maps=None, data_size=64):
    """The result, or the fault as ``(reason, pc)``; anything else the
    run raises (an IndexError out of unguarded code) propagates."""
    vm = Vm(program, VmEnvironment(helpers, maps=maps), mode=mode)
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
    maps = {1: HashMap(4, 8, 8, name="m")}
    verify(program, HELPERS, maps=maps)
    proof = program.proof
    assert isinstance(proof, Proof)
    assert proof.instructions == tuple(program.instructions)
    assert proof.layout == tuple(program.ctx_layout.fields)
    assert proof.context == proof_context(HELPERS, maps) \
        == program.verified_against
    assert proof.covers(program, proof_context(HELPERS, maps))
    assert not proof.covers(program, proof_context(HELPERS))
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
        {1: Scalar(1, 256)},                # call  trace
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
                  Ptr("data", 32, 8, 16),
                  Ptr("data", 64, 8, 16, maybe_null=True)):
        assert _join([data, other]) is None
        assert _join([other, data]) is None
    assert _join([NOT_INIT]) is None
    assert _join([Ptr("map_value:1", 8, maybe_null=True)]) is None


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
        "(self, program: 'Program', env: 'VmEnvironment', mode: 'str' = "
        "'interp', max_instructions: 'int' = 1000000, require_verified: "
        "'bool' = True)")
    assert str(inspect.signature(verify)) == (
        "(program: 'Program', helpers: 'HelperRegistry', maps: "
        "'Optional[Dict[int, object]]' = None, state_budget: 'int' = "
        "200000) -> 'VerifierStats'")
    assert str(inspect.signature(Verifier.__init__)) == (
        "(self, program: 'Program', helpers: 'HelperRegistry', maps: "
        "'Optional[Dict[int, object]]' = None, state_budget: 'int' = "
        "200000)")


# ---------------------------------------------------------------------------
# (a) No proof, no elision
# ---------------------------------------------------------------------------


def test_without_a_proof_the_generated_source_is_the_guarded_source():
    forged = program_of(SITES)
    forged.verified = True  # the verifier never saw it
    assert source_of(forged) == GUARDED_SOURCE
    vm = Vm(forged, VmEnvironment(HELPERS), mode="block")
    assert vm.guarded == {0, 1, 2, 3, 4, 6}

    proven = program_of(SITES)
    verify(proven, HELPERS)
    assert "__class__" not in source_of(proven)
    assert "_load(" not in source_of(proven)
    assert Vm(proven, VmEnvironment(HELPERS), mode="block").guarded \
        == frozenset()
    # The same program with its proof taken away: guarded again.
    assert source_of(dataclasses.replace(proven, proof=None)) \
        == GUARDED_SOURCE


def test_stack_and_map_value_sites_keep_their_guards():
    # The proof covers them (the checker asserts its facts there too), but
    # a stack slot may hold a spilled pointer and no entry check sizes a
    # map value, so the compiled code keeps every check at those sites.
    program = program_of("""
        mov   r2, 0
        stxw  [r10-4], r2
        mov   r1, 1
        mov   r2, r10
        add   r2, -4
        call  map_lookup
        jeq   r0, 0, miss
        ldxdw r3, [r0+0]
        stxdw [r0+0], r3
    miss:
        mov   r0, 0
        exit
    """)
    maps = {1: HashMap(4, 8, 8, name="m")}
    maps[1].update(bytes(4), (77).to_bytes(8, "little"))
    verify(program, HELPERS, maps=maps)
    vm = Vm(program, VmEnvironment(HELPERS, maps=maps), mode="block")
    # The stack store, the maybe-null check, the map-value load and store.
    assert vm.guarded == {1, 6, 7, 8}
    assert program.proof.facts[7][0] == Ptr("map_value:1", 8)
    assert checked_run(Vm(program, VmEnvironment(HELPERS, maps=maps)),
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
    vm = Vm(program, VmEnvironment(HELPERS))
    assert checked_run(vm, bytearray(40), regions).return_value == 0

    def tampered(pc, reg, fact):
        facts = list(program.proof.facts)
        known = list(facts[pc])
        known[reg] = fact
        facts[pc] = tuple(known)
        return Vm(dataclasses.replace(program, proof=dataclasses.replace(
            program.proof, facts=tuple(facts))), VmEnvironment(HELPERS))

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
            VmEnvironment(HELPERS)), bytearray(40), regions)


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
    spent = Vm(program, VmEnvironment(HELPERS), mode="block")
    assert not spent.guarded
    program.instructions[1] = dataclasses.replace(program.instructions[1],
                                                  offset=64)
    assert not program.proof.covers(program, proof_context(HELPERS))
    assert_guarded_everywhere(program)
    assert Vm(program, VmEnvironment(HELPERS), mode="block").guarded \
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
    # Proved against a ``probe`` that returns nothing (r0 = 0 after the
    # call, so the load is proven at data+0); run under a registry whose
    # ``probe`` returns a scalar.
    def registry(ret):
        helpers = HelperRegistry()
        helpers.register(HelperSpec(40, "probe", (ArgKind.SCALAR,), ret),
                         lambda vm, value: 100)
        return helpers

    program = program_of("""
        ldxdw r6, [r1+24]
        mov   r1, 1
        call  probe
        add   r6, r0
        ldxb  r3, [r6+0]
        mov   r0, 0
        exit
    """, helpers=registry(RetKind.VOID))
    verify(program, registry(RetKind.VOID))
    assert program.proof.facts[4][6] == Ptr("data", 64)
    assert not Vm(program, VmEnvironment(registry(RetKind.VOID)),
                  mode="block").guarded
    other = registry(RetKind.SCALAR)
    assert_guarded_everywhere(program, other)
    assert outcome(program, "block", helpers=other) \
        == outcome(program, "interp", helpers=other) \
        == ("read [100, 101) out of bounds of 'data' (64B)", -1)


def test_verifying_again_replaces_the_code_compiled_from_the_old_proof():
    program = program_of(LAST_BYTE)
    verify(program, HELPERS)
    first = Vm(program, VmEnvironment(HELPERS), mode="block")
    again = Vm(program, VmEnvironment(HELPERS), mode="block")
    assert first._compiled.__code__ is again._compiled.__code__
    program.instructions[2] = dataclasses.replace(program.instructions[2],
                                                  imm=5)
    verify(program, HELPERS)
    renewed = Vm(program, VmEnvironment(HELPERS), mode="block")
    assert renewed._compiled.__code__ is not first._compiled.__code__
    assert outcome(program, "block").return_value == 5


# ---------------------------------------------------------------------------
# Satellites
# ---------------------------------------------------------------------------


def test_map_value_region_is_named_by_map_id_in_both_tiers():
    # The verifier calls it 'map_value:1' (``Ptr.region``, its rejections);
    # the VM used to call it after the map's name.
    source = """
        mov   r2, 0
        stxw  [r10-4], r2
        mov   r1, 1
        mov   r2, r10
        add   r2, -4
        call  map_lookup
        jeq   r0, 0, miss
        ldxdw r3, [r0+8]
    miss:
        mov   r0, 0
        exit
    """
    maps = {1: HashMap(4, 8, 8, name="counters")}
    maps[1].update(bytes(4), bytes(8))
    program = program_of(source)
    with pytest.raises(VerifierError, match=r"load \[8, 16\) out of bounds "
                       r"of 'map_value:1' \(8B\)"):
        verify(program, HELPERS, maps=maps)
    program.verified = True  # forged
    for mode in ("interp", "block"):
        assert outcome(program, mode, maps=maps) == \
            ("read [8, 16) out of bounds of 'map_value:1' (8B)", -1), mode


#: The six programs ``verify_install`` makes ready: (memory sites, sites
#: compiled without guards, digest of ``proof.facts``).  None touches the
#: stack or a map value, so the proof covers every one; a verifier
#: precision regression that puts a guard back fails here by name, not as
#: a slower benchmark.  The digests were recorded before the loop and
#: prune rules moved to prune points, and did not move: a verifier change
#: that moves any fact fails by name before it moves generated code or a
#: golden.
INSTALLABLE = {
    "index16": (lambda: index_traversal_program(fanout=16), 19, 19,
                "77f2e97de9e4d013"),
    "index6": (lambda: index_traversal_program(fanout=6), 17, 17,
               "a8f8d41dd0b70042"),
    "wisckey": (lambda: wisckey_get_program(fanout=FANOUT_MAX), 33, 33,
                "55b21ca4596187bc"),
    "linked_list": (linked_list_program, 8, 8, "2fb7101fa7dbdead"),
    "scan_aggregate": (lambda: scan_aggregate_program(fanout=64), 22, 22,
                       "8166cc09a387e498"),
    "sstable_merge": (lambda: sstable_merge_program(PAGE_SIZE, 64,
                                                    FANOUT_MAX), 19, 19,
                      "486ad6943b263920"),
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
    vm = Vm(program, VmEnvironment(helpers), mode="block")
    memory = [pc for pc, insn in enumerate(program.instructions)
              if insn.opcode.startswith(("ldx", "st"))]
    assert (len(memory), sum(pc not in vm.guarded for pc in memory)) \
        == (sites, bare)
    # Nor does any ALU op, branch or call of theirs keep a guard.
    assert not vm.guarded
