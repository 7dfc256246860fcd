"""Property-based tests of the eBPF toolchain.

Four properties, the first three run **three ways** (`three_ways`): the
interpreter, the block tier compiled without the program's proof (every
run-time guard in place) and the block tier spending it (the guards of
every proven site dropped).  Under the first three, the **proof
checker** (``proofcheck.py``) re-runs every accepted program asserting,
before each instruction, each fact the proof claims for it.

1. **Differential execution** — the tiers agree exactly (full
   ExecutionResult) on random straight-line ALU programs, and all match
   an independent Python reference evaluator.
2. **Verifier soundness (safety) and tier equivalence** — any randomly
   generated structured program (ALU, loads, stores, branches, a bounded
   loop, pointer arithmetic, spills, helper calls) the verifier *accepts*
   executes on random inputs without a single VM fault, and every
   program, accepted or not, has the same outcome every way: result,
   memory and side effects, or the same fault at the same instruction.
3. **The shipped programs** — the six programs ``verify_install`` makes
   ready walk real pages hop by hop identically every way.
4. **Encode/assemble/disassemble closure** — random programs survive
   wire encoding and disassembly unchanged.

Every example is derived from a fixed seed (``derandomize``), so a run
is reproducible.
"""

import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compact.programs import sstable_merge_program
from repro.core.hooks import (ACTION_RESUBMIT, CTX_ACTION, CTX_DATA_LEN,
                              CTX_RESULT, CTX_SIZE, storage_ctx_layout,
                              storage_helpers)
from repro.core.library import (index_traversal_program, linked_list_program,
                                scan_aggregate_program, wisckey_get_program)
from repro.ebpf import HashMap, Program, Vm, assemble, verify
from repro.ebpf.disasm import disassemble
from repro.ebpf.isa import decode, encode
from repro.ebpf.vm import VmEnvironment
from repro.errors import VerifierError, VmFault
from repro.structures import (BTREE_PAGE_MAGIC, BTree, SsTable,
                              WisckeyStore)
from repro.structures.pages import MemoryBackend, PAGE_SIZE, encode_page

from proofcheck import checked_run

HELPERS = storage_helpers()
NAMES = HELPERS.names()
LAYOUT = storage_ctx_layout(256, 64)


def three_ways(program):
    """``(label, program, mode)`` for the reference, the block tier kept
    from the proof (a copy of the program without it) and the block tier
    spending it.  A program the verifier rejected has no proof to strip:
    its last two ways are the same guarded code."""
    return (("interp", program, "interp"),
            ("block, no proof", dataclasses.replace(program, proof=None),
             "block"),
            ("block, proof", program, "block"))


U64 = 0xFFFFFFFFFFFFFFFF
U32 = 0xFFFFFFFF


def _s64(value):
    return value - 2**64 if value >= 2**63 else value


def _s32(value):
    return value - 2**32 if value >= 2**31 else value


# ---------------------------------------------------------------------------
# 1. Differential ALU execution
# ---------------------------------------------------------------------------

_ALU = ["add", "sub", "mul", "div", "mod", "or", "and", "xor", "lsh",
        "rsh", "arsh", "mov"]
_JMP = ["jeq", "jne", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge",
        "jslt", "jsle"]


def _reference_alu(op, a, b, is32):
    if is32:
        a &= U32
        b &= U32
    top = U32 if is32 else U64
    bits = 31 if is32 else 63
    if op == "add":
        result = a + b
    elif op == "sub":
        result = a - b
    elif op == "mul":
        result = a * b
    elif op == "div":
        result = 0 if b == 0 else a // b
    elif op == "mod":
        result = a if b == 0 else a % b
    elif op == "or":
        result = a | b
    elif op == "and":
        result = a & b
    elif op == "xor":
        result = a ^ b
    elif op == "lsh":
        result = a << (b & bits)
    elif op == "rsh":
        result = a >> (b & bits)
    elif op == "arsh":
        signed = _s32(a) if is32 else _s64(a)
        result = signed >> (b & bits)
    elif op == "mov":
        result = b
    elif op == "neg":
        result = -a
    else:
        raise AssertionError(op)
    return result & top


@st.composite
def _alu_steps(draw):
    steps = []
    for _ in range(draw(st.integers(1, 25))):
        op = draw(st.sampled_from(_ALU + ["neg"]))
        is32 = draw(st.booleans())
        dst = draw(st.integers(2, 5))
        if op == "neg":
            steps.append((op, is32, dst, ("none", 0)))
        elif draw(st.booleans()):
            src = draw(st.integers(2, 5))
            steps.append((op, is32, dst, ("reg", src)))
        else:
            imm = draw(st.integers(-(2**31), 2**31 - 1))
            steps.append((op, is32, dst, ("imm", imm)))
    return steps


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_alu_steps(),
       st.lists(st.integers(0, U64), min_size=4, max_size=4))
def test_interp_jit_and_reference_agree(steps, seeds):
    # Build the program: seed r2..r5 from ctx args, run steps, store r2.
    lines = [f"ldxdw r{reg}, [r1+{40 + 8 * (reg - 2)}]"
             for reg in range(2, 6)]
    for op, is32, dst, (kind, value) in steps:
        suffix = "32" if is32 else ""
        operand = {"reg": f", r{value}", "imm": f", {value}", "none": ""}[kind]
        lines.append(f"{op}{suffix} r{dst}{operand}")
    lines.append("stxdw [r1+88], r2")
    lines.append("mov r0, 0")
    lines.append("exit")
    program = Program(assemble("\n".join(lines)), LAYOUT, name="fuzz")
    verify(program, HELPERS)

    # Reference evaluation.
    regs = {reg: seeds[reg - 2] for reg in range(2, 6)}
    for op, is32, dst, (kind, value) in steps:
        operand = regs[value] if kind == "reg" else value & U64
        regs[dst] = _reference_alu(op, regs[dst], operand, is32)

    def fresh_ctx():
        ctx = bytearray(LAYOUT.size)
        for index, seed in enumerate(seeds):
            ctx[40 + 8 * index : 48 + 8 * index] = seed.to_bytes(8, "little")
        return ctx

    results = {}
    for way, built, mode in three_ways(program):
        vm = Vm(built, VmEnvironment(HELPERS), mode=mode)
        assert bool(vm.guarded) == (way == "block, no proof")
        ctx = fresh_ctx()
        results[way] = vm.run(ctx, {"data": bytearray(256),
                                    "scratch": bytearray(64)})
        assert int.from_bytes(ctx[88:96], "little") == regs[2], way
    # The full ExecutionResult (return value, instruction count, trace,
    # helper calls) must be identical every way.
    assert results["interp"] == results["block, no proof"] \
        == results["block, proof"]
    assert results["interp"] == checked_run(
        Vm(program, VmEnvironment(HELPERS)), fresh_ctx(),
        {"data": bytearray(256), "scratch": bytearray(64)})


# ---------------------------------------------------------------------------
# 2. Verifier soundness and tier equivalence on structured programs
# ---------------------------------------------------------------------------

# Callee-saved registers hold what must survive the helper calls; r1-r5
# are temporaries.
_PROLOGUE = ["mov r6, r1",               # ctx
             "ldxdw r7, [r6+0]",         # data pointer (256 B)
             "ldxdw r8, [r6+32]",        # scratch pointer (64 B)
             "mov r9, 0"]                # accumulator


@st.composite
def _structured_program(draw):
    """Random programs over the shapes the block tier specialises: ALU,
    masked and unmasked loads, stores, forward branches, a bounded
    back-edge loop, ``ptr + reg`` / ``ptr - imm``, pointer spill and fill,
    and helper calls with scalar, pointer + size and map arguments.  Some
    verify, some do not."""
    lines = list(_PROLOGUE)
    labels = 0
    open_labels = []
    for _ in range(draw(st.integers(1, 18))):
        choice = draw(st.integers(0, 14))
        # Now and then a helper is handed the wrong class of argument.
        wrong = choice >= 10 and draw(st.integers(0, 7)) == 0
        if choice == 0:
            op = draw(st.sampled_from(_ALU))
            imm = draw(st.integers(-1000, 1000))
            lines.append(f"{op} r9, {imm}")
        elif choice == 1:
            # Masked data load through ptr + reg (in either operand
            # order); the widest masks reach past the 256 B region.
            mask = draw(st.sampled_from([7, 15, 63, 127, 255, 511]))
            lines += ["ldxdw r4, [r6+40]", f"and r4, {mask}"]
            if draw(st.booleans()):
                lines += ["mov r1, r7", "add r1, r4"]
            else:
                lines += ["mov r1, r4", "add r1, r7"]
            size = draw(st.sampled_from(["b", "h", "w", "dw"]))
            lines += [f"ldx{size} r2, [r1+0]", "add r9, r2"]
        elif choice == 2:
            # Possibly-unsafe data load (offset may exceed the region).
            offset = draw(st.integers(0, 400))
            lines.append(f"ldxb r2, [r7+{offset}]")
        elif choice == 3:
            offset = draw(st.integers(0, 56))
            lines.append(f"stxdw [r8+{offset & ~7}], r9")
        elif choice == 4:
            # Possibly-unsafe scratch store.
            offset = draw(st.integers(0, 100))
            lines.append(f"stxb [r8+{offset}], r9")
        elif choice == 5:
            # Forward branch on any condition, against an immediate or
            # the unknown scalar arg0.
            labels += 1
            op = draw(st.sampled_from(_JMP))
            if draw(st.booleans()):
                lines.append(f"{op} r9, {draw(st.integers(-100, 100))}, "
                             f"fwd{labels}")
            else:
                lines += ["ldxdw r4, [r6+40]",
                          f"{op} r9, r4, fwd{labels}"]
            open_labels.append(f"fwd{labels}")
        elif choice == 6:
            lines.append(f"stxdw [r10-{draw(st.sampled_from([8, 16, 24]))}]"
                         ", r9")
            lines.append(f"ldxdw r2, [r10-{draw(st.sampled_from([8, 16]))}]")
        elif choice == 7:
            # Bounded back-edge loop; the body indexes data by the counter.
            labels += 1
            bound = draw(st.integers(1, 5))
            lines += ["mov r5, 0", f"loop{labels}:", "mov r1, r7",
                      "add r1, r5", "ldxb r2, [r1+0]", "add r9, r2",
                      "add r5, 1", f"jlt r5, {bound}, loop{labels}"]
        elif choice == 8:
            # ptr + imm then ptr - imm/reg: may walk below the region.
            up = draw(st.integers(0, 64))
            down = draw(st.integers(0, 72))
            lines += ["mov r1, r7", f"add r1, {up}"]
            if draw(st.booleans()):
                lines.append(f"sub r1, {down}")
            else:
                lines += [f"mov r3, {down}", "sub r1, r3"]
            lines += ["ldxh r2, [r1+0]", "add r9, r2"]
        elif choice == 9:
            # Pointer spill and fill; sometimes a partial read of the
            # slot or a scalar overwrite before the fill.
            lines.append("stxdw [r10-32], r7")
            twist = draw(st.integers(0, 3))
            if twist == 0:
                lines.append("ldxb r2, [r10-32]")
            elif twist == 1:
                lines.append("stxw [r10-32], r9")
            lines += ["ldxdw r1, [r10-32]",
                      f"ldxb r2, [r1+{draw(st.integers(0, 255))}]",
                      "add r9, r2"]
        elif choice == 10:
            lines += [f"mov r1, {'r7' if wrong else 'r9'}", "call trace"]
        elif choice == 11:
            lines += ["call ktime", "add r9, r0"]
        elif choice == 12:
            # scratch <- data; the largest size overruns the scratch area.
            lines += [f"mov r1, {'5' if wrong else 'r8'}",
                      f"mov r2, {draw(st.sampled_from([8, 16, 64, 80]))}",
                      "mov r3, r7",
                      f"add r3, {draw(st.integers(0, 250))}",
                      f"mov r4, {draw(st.sampled_from([8, 16, 64]))}",
                      "call memcpy", "add r9, r0"]
        elif choice == 13:
            # map_lookup with the key on the stack, then (usually) the
            # null check the verifier insists on.
            labels += 1
            lines += ["ldxdw r4, [r6+40]", "and r4, 3", "stxw [r10-4], r4",
                      "mov r1, 1", "mov r2, r10", "add r2, -4",
                      "call map_lookup"]
            if draw(st.integers(0, 4)):
                lines.append(f"jeq r0, 0, miss{labels}")
            lines += ["ldxdw r2, [r0+0]", "add r9, r2"]
            if draw(st.booleans()):
                lines.append("stxdw [r0+0], r9")
            lines.append(f"miss{labels}:")
        else:
            lines += ["mov r1, r9",
                      f"mov r2, {'r8' if wrong else draw(st.integers(0, 99))}",
                      "call compact_emit", "add r9, r0"]
    lines.append("stxdw [r6+88], r9")
    lines.append("mov r0, 0")
    for name in open_labels:
        lines.append(f"{name}:")
    lines.append("mov r0, 0")
    lines.append("exit")
    return "\n".join(lines)


class _RecordingSink:
    """Stands in for the compaction merge sink: remembers every emit."""

    def __init__(self):
        self.calls = []

    def emit(self, key, value):
        self.calls.append((key, value))
        return len(self.calls)


def _lookup_map():
    """Keys 0 and 1 present, 2 and 3 absent (the programs mask to 0-3)."""
    bpf_map = HashMap(4, 8, 8, name="m")
    for key in (0, 1):
        bpf_map.update(key.to_bytes(4, "little"),
                       (1000 + key).to_bytes(8, "little"))
    return bpf_map


def _outcome(program, mode, arg0, data, budget, require_verified,
             run=Vm.run):
    """Everything observable about one run, fault or not.  ``run`` may be
    the proof checker's stand-in for ``Vm.run``."""
    bpf_map = _lookup_map()
    env = VmEnvironment(HELPERS, maps={1: bpf_map}, clock=lambda: 12345)
    vm = Vm(program, env, mode=mode, max_instructions=budget,
            require_verified=require_verified)
    vm.compact_sink = sink = _RecordingSink()
    ctx = bytearray(LAYOUT.size)
    ctx[40:48] = arg0.to_bytes(8, "little")
    regions = {"data": bytearray(data), "scratch": bytearray(64)}
    try:
        result = run(vm, ctx, regions)
    except VmFault as fault:
        result = ("fault", fault.reason, fault.pc)
    return (result, bytes(ctx), bytes(regions["data"]),
            bytes(regions["scratch"]), sink.calls,
            [bpf_map.lookup(key.to_bytes(4, "little")) for key in range(4)])


@settings(max_examples=250, deadline=None, derandomize=True)
@given(_structured_program(), st.integers(0, U64),
       st.binary(min_size=256, max_size=256),
       st.sampled_from([25, 60, 10_000]))
def test_verified_programs_never_fault(source, arg0, data, budget):
    program = Program(assemble(source, NAMES), LAYOUT, name="fuzz2")
    try:
        verify(program, HELPERS, maps={1: _lookup_map()},
               state_budget=30_000)
    except VerifierError:
        pass  # rejected: the tiers must still agree, fault for fault
    interp, guarded, proven = (
        _outcome(built, mode, arg0, data, budget, require_verified=False)
        for _way, built, mode in three_ways(program))
    assert interp == guarded == proven, source
    if program.verified:
        assert interp == _outcome(program, "interp", arg0, data, budget,
                                  require_verified=False, run=checked_run)
    if program.verified and budget == 10_000:
        assert not isinstance(interp[0], tuple), (
            f"verifier accepted but VM faulted: {interp[0]}\n{source}")


# ---------------------------------------------------------------------------
# 3. The six programs of verify_install, over real pages
# ---------------------------------------------------------------------------

_HOP_INPUTS = struct.Struct("<QQQ8x4Q")   # from CTX_DATA_LEN: see core.chains
_HOP_OUTPUTS = struct.Struct("<4Q")       # from CTX_ACTION


def _walk(program, mode, image, offset, args=(), scratch_size=256,
          run=Vm.run):
    """Run ``program`` hop by hop over the file ``image`` the way the chain
    engine does; returns every hop's (result, ctx, scratch) and the sink.
    ``run`` may be the proof checker's stand-in for ``Vm.run``."""
    vm = Vm(program, VmEnvironment(HELPERS), mode=mode)
    vm.compact_sink = sink = _RecordingSink()
    scratch = bytearray(scratch_size)
    hops = []
    while len(hops) < 64:
        ctx = bytearray(CTX_SIZE)
        _HOP_INPUTS.pack_into(ctx, CTX_DATA_LEN, PAGE_SIZE, offset,
                              len(hops), *(tuple(args) + (0,) * 4)[:4])
        page = bytearray(image[offset:offset + PAGE_SIZE])
        result = run(vm, ctx, {"data": page, "scratch": scratch})
        hops.append((result, bytes(ctx), bytes(scratch)))
        action, offset, _, _ = _HOP_OUTPUTS.unpack_from(ctx, CTX_ACTION)
        if action != ACTION_RESUBMIT:
            break
    return hops, sink.calls


def _image(build, *args, **kwargs):
    backend = MemoryBackend()
    built = build(backend, *args, **kwargs)
    return built, backend.read(0, backend.size) + bytes(PAGE_SIZE)


def _install_cases():
    """(name, program, image, first offset, args, scratch size, expected
    final ``result``) for the six programs ``verify_install`` installs."""
    cases = []
    for fanout, count in ((16, 1000), (6, 500)):
        items = [(key * 3 + 1, key * 7919 + 5) for key in range(count)]
        tree, image = _image(BTree.build, items, fanout=fanout)
        key, value = items[count // 3]
        cases.append((f"index{fanout}",
                      index_traversal_program(fanout=fanout), image,
                      tree.meta.root_offset, (key,), 256, value))

    records = [(key * 2, b"payload-%d" % (key * 31)) for key in range(800)]
    store, image = _image(WisckeyStore.build, records, fanout=64)
    key, payload = records[517]
    cases.append(("wisckey", wisckey_get_program(), image,
                  store.tree.meta.root_offset, (key,), 256, len(payload)))

    order = [4, 1, 7, 2, 8, 5]
    blocks = bytearray((max(order) + 1) * PAGE_SIZE)
    for position, block in enumerate(order):
        following = (order[position + 1] * PAGE_SIZE
                     if position + 1 < len(order) else U64)
        struct.pack_into("<QQ", blocks, block * PAGE_SIZE, following,
                         1000 + block)
    cases.append(("linked_list", linked_list_program(), bytes(blocks),
                  order[0] * PAGE_SIZE, (), 256, 1000 + order[-1]))

    pages, total = [], 0
    for page in range(8):
        entries = [(page * 64 + slot, (page * 64 + slot) * 3 % 1000)
                   for slot in range(64)]
        total += sum(value for key, value in entries if 100 <= key <= 400)
        pages.append(encode_page(BTREE_PAGE_MAGIC, 0, entries))
    cases.append(("scan_aggregate", scan_aggregate_program(fanout=64),
                  b"".join(pages) + bytes(PAGE_SIZE), 0, (100, 400, 8), 256,
                  total))

    entries = [(key * 5, key * 11 + 1) for key in range(1500)]
    _, image = _image(SsTable.build, entries)
    cases.append(("sstable_merge", sstable_merge_program(PAGE_SIZE, 64),
                  image, PAGE_SIZE, (0,), 64, len(entries)))
    return cases


@pytest.mark.parametrize("case", _install_cases(), ids=lambda case: case[0])
def test_install_programs_walk_real_pages_identically(case):
    name, program, image, offset, args, scratch_size, expected = case
    verify(program, HELPERS)
    interp, guarded, proven = (
        _walk(built, mode, image, offset, args, scratch_size)
        for _way, built, mode in three_ways(program))
    assert interp == guarded == proven
    # Every fact the proof claims holds on every instruction of the walk.
    assert interp == _walk(program, "interp", image, offset, args,
                           scratch_size, run=checked_run)
    hops, emitted = interp
    # ... and the walk did the program's job, not merely the same nothing.
    final_ctx = hops[-1][1]
    assert struct.unpack_from("<Q", final_ctx, CTX_RESULT)[0] == expected
    assert len(hops) > 1
    if name == "sstable_merge":
        assert emitted == [(key * 5, key * 11 + 1) for key in range(1500)]


# ---------------------------------------------------------------------------
# 4. Encoding and disassembly closure
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_structured_program())
def test_encode_decode_disassemble_closure(source):
    insns = assemble(source, NAMES)
    assert decode(encode(insns)) == insns
    assert assemble(disassemble(insns)) == insns
