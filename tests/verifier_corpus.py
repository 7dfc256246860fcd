"""Seed-deterministic corpus of small programs for pinning verifier verdicts.

``programs()`` yields the same assembly sources on every run (only
``randrange`` and ``choice`` are drawn, whose streams are stable across
the Python versions CI covers; the recorded digests catch a drift).  Each
program is a preamble plus a few fragments, nested up to two deep, picked
to cover what the exploration has to decide: loops bounded by a constant
or a clamped argument, loops the verifier cannot bound, loops that make no
progress, branch refinement that does or does not prove an access, diamonds
that rejoin, and pointer spills.

Recording (run against the commit whose verdicts are the reference)::

    PYTHONPATH=<that commit>/src python tests/verifier_corpus.py --record

writes ``tests/data/verifier_corpus.json``: per program a digest of the
source and ``(accepted, error text, error pc, states_explored)``.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.hooks import storage_ctx_layout, storage_helpers
from repro.ebpf import Program, assemble, verify
from repro.errors import VerifierError

SEED = 13
COUNT = 540
#: Small enough that a loop the verifier cannot bound fails fast.
STATE_BUDGET = 2000
DATA_SIZE = 256
SCRATCH_SIZE = 64
CORPUS_PATH = Path(__file__).parent / "data" / "verifier_corpus.json"

HELPERS = storage_helpers()
LAYOUT = storage_ctx_layout(DATA_SIZE, SCRATCH_SIZE)


# Register plan: r6 ctx, r7 data, r9 accumulator, r8 the outer loop's
# counter and r5 the inner one's; r0-r4 temporaries.
PREAMBLE = ["mov r6, r1",
            "ldxdw r7, [r6+0]",
            "ldxdw r9, [r6+40]"]


class _Builder:
    def __init__(self, rng):
        self.rng = rng
        self.lines = list(PREAMBLE)
        self.labels = 0

    def label(self, stem):
        self.labels += 1
        return f"{stem}{self.labels}"

    def emit(self, *lines):
        self.lines.extend(lines)

    def flawed(self):
        """True for the one fragment in sixteen written to be unsafe."""
        return self.rng.randrange(16) == 0

    # -- fragments ---------------------------------------------------

    def fragment(self, depth):
        kinds = [self.alu, self.refined_access, self.refined_access,
                 self.diamond, self.diamond, self.spill, self.stack_bytes]
        if depth < 2:
            kinds += [self.const_loop, self.const_loop, self.clamped_loop]
            if self.rng.randrange(30) == 0:
                kinds = [self.unbounded_loop, self.no_progress_loop]
        self.rng.choice(kinds)(depth)

    def body(self, depth):
        for _ in range(self.rng.randrange(1, 4)):
            self.fragment(depth)

    def alu(self, depth):
        rng = self.rng
        op = rng.choice(["add", "sub", "mul", "and", "or", "xor", "lsh",
                         "rsh", "mod", "div", "add32", "mov32"])
        if self.flawed():
            self.emit(f"{op} r9, r4")    # r4 is rarely initialised here
        else:
            self.emit(f"{op} r9, {rng.randrange(1, 64)}")

    def refined_access(self, depth):
        """A variable-offset access proved by a mask or a compare."""
        rng = self.rng
        skip = self.label("skip")
        writes = rng.randrange(3) == 0
        size = 64 if writes else 256
        if self.flawed():
            limit = rng.choice([size, size + 37, 2 * size])    # off the end
        else:
            limit = rng.choice([size // 8, size // 2, size - 8])
        self.emit(f"ldxdw r2, [r6+{rng.choice([40, 48, 56, 64])}]")
        style = rng.randrange(3 if limit < size else 4)
        if style == 0:
            self.emit(f"and r2, {limit - 1}")
        elif style == 1:
            self.emit(f"jgt r2, {limit - 1}, {skip}")
        elif style == 2:
            self.emit(f"jge r2, {limit}, {skip}")
        # style 3: no guard at all
        if writes:
            self.emit("ldxdw r3, [r6+32]", "add r3, r2", "stxb [r3+0], r9")
        else:
            width = rng.choice(["b", "h", "w", "dw"])
            self.emit("mov r3, r7", "add r3, r2", f"ldx{width} r1, [r3+0]",
                      "add r9, r1")
        self.emit(f"{skip}:")

    def diamond(self, depth):
        """Two arms that rejoin with equal, nested or disjoint knowledge."""
        rng = self.rng
        other, join = self.label("arm"), self.label("join")
        op = rng.choice(["jgt", "jlt", "jeq", "jne", "jsgt", "jset"])
        self.emit(f"{op} r9, {rng.randrange(0, 32)}, {other}")
        style = rng.randrange(3)
        if style == 0:      # same constant on both arms: exact duplicate
            self.emit("mov r3, 1", f"ja {join}", f"{other}:", "mov r3, 1")
        elif style == 1:    # different constants: neither covers the other
            self.emit("mov r3, 1", f"ja {join}", f"{other}:", "mov r3, 2")
        else:               # a range, then a constant in or out of it
            self.emit("ldxb r3, [r7+0]", f"ja {join}", f"{other}:",
                      f"mov r3, {rng.randrange(0, 300)}")
        self.emit(f"{join}:")
        if rng.randrange(2):
            self.emit("mov r9, r3")

    def spill(self, depth):
        rng = self.rng
        slot = rng.choice([8, 16, 24, 32])
        self.emit(f"stxdw [r10-{slot}], r7")
        if not self.flawed():
            self.emit(f"ldxdw r3, [r10-{slot}]",
                      f"ldxb r1, [r3+{rng.randrange(0, 256)}]", "add r9, r1")
            return
        style = rng.randrange(4)
        if style == 0:      # misaligned spill
            self.emit(f"stxdw [r10-{slot + 4}], r7")
        elif style == 1:    # partial read of the spilled pointer
            self.emit(f"ldxw r3, [r10-{slot}]")
        elif style == 2:    # overwritten by a scalar, then dereferenced
            self.emit(f"stxdw [r10-{slot}], r9", f"ldxdw r3, [r10-{slot}]",
                      "ldxb r1, [r3+0]")
        else:               # restored, then read past the end
            self.emit(f"ldxdw r3, [r10-{slot}]", "ldxb r1, [r3+256]")

    def stack_bytes(self, depth):
        rng = self.rng
        slot = rng.choice([40, 48])
        self.emit(f"stxw [r10-{slot}], r9")
        width = "dw" if self.flawed() else rng.choice(["b", "h", "w"])
        self.emit(f"ldx{width} r3, [r10-{slot}]", "add r9, r3")

    # -- loops -------------------------------------------------------

    def counter(self, depth):
        return "r8" if depth == 0 else "r5"

    def const_loop(self, depth):
        """``for (i = 0; i < N; i++)`` indexing data by ``8 * i``."""
        rng = self.rng
        counter, head = self.counter(depth), self.label("loop")
        bound = rng.choice([2, 3, 4, 6] if depth else
                           [2, 5, 16, 32, 40, 60])
        if self.flawed():
            bound = 33          # the last 8-byte read runs off the block
        self.emit(f"mov {counter}, 0", f"{head}:")
        if bound == 33 or rng.randrange(2):
            self.emit(f"mov r2, {counter}", "lsh r2, 3", "mov r3, r7",
                      "add r3, r2", "ldxdw r1, [r3+0]", "add r9, r1")
        self.body(depth + 1)
        self.emit(f"add {counter}, 1", f"jlt {counter}, {bound}, {head}")

    def clamped_loop(self, depth):
        """Bound read from an argument and clamped by a mask."""
        rng = self.rng
        counter = self.counter(depth)
        head, out = self.label("loop"), self.label("out")
        self.emit("ldxdw r3, [r6+48]", f"and r3, {rng.choice([3, 7, 15])}",
                  "stxdw [r10-56], r3", f"mov {counter}, 0", f"{head}:",
                  "ldxdw r3, [r10-56]")
        # The bound was spilled as plain bytes, so the reload is unknown
        # and has to be clamped again for the loop to be bounded.
        if not self.flawed():
            self.emit("and r3, 15")
        self.emit(f"jge {counter}, r3, {out}")
        self.body(depth + 1)
        self.emit(f"add {counter}, 1", f"ja {head}", f"{out}:")

    def unbounded_loop(self, depth):
        counter = self.counter(depth)
        head, out = self.label("loop"), self.label("out")
        self.emit(f"mov {counter}, 0", f"{head}:", "ldxdw r3, [r6+56]",
                  f"jge {counter}, r3, {out}")
        self.body(depth + 1)
        self.emit(f"add {counter}, 1", f"ja {head}", f"{out}:")

    def no_progress_loop(self, depth):
        rng = self.rng
        head = self.label("spin")
        if rng.randrange(2):
            # Polls memory: the state at the head never changes.
            self.emit(f"{head}:", "ldxdw r2, [r7+0]")
            self.body(depth + 1)
            self.emit("ldxdw r2, [r7+0]", f"jne r2, 0, {head}")
        else:
            # Counter kept on the stack, whose bytes the domain does not
            # track: every iteration looks like the first.
            self.emit("stdw [r10-64], 0", f"{head}:", "ldxdw r2, [r10-64]",
                      "add r2, 1", "stxdw [r10-64], r2")
            self.body(depth + 1)
            self.emit("ldxdw r2, [r10-64]", f"jlt r2, 10, {head}")


def programs(seed=SEED, count=COUNT):
    """Yield ``count`` assembly sources, the same ones for a given seed."""
    rng = random.Random(seed)
    for _ in range(count):
        builder = _Builder(rng)
        for _ in range(rng.randrange(2, 6)):
            builder.fragment(0)
        builder.emit("mov r0, 0", "exit")
        yield "\n".join(builder.lines)


def digest(source):
    return hashlib.sha256(source.encode()).hexdigest()[:12]


def build(source):
    return Program(assemble(source, HELPERS.names()), LAYOUT, name="corpus")


def explore(source):
    """Verify one source: ``(program, stats, None)`` if accepted, else
    ``(program, None, the VerifierError)``."""
    program = build(source)
    try:
        stats = verify(program, HELPERS, state_budget=STATE_BUDGET)
    except VerifierError as error:
        return program, None, error
    return program, stats, None


def verdict(source):
    """``(accepted, error text, error pc, states_explored)`` for one source.

    ``states_explored`` is None for a rejection (the verifier reports it
    only on success).
    """
    _program, stats, error = explore(source)
    if error is not None:
        return False, error.reason, error.pc, None
    return True, None, None, stats.states_explored


def record(path=CORPUS_PATH):
    rows = []
    for source in programs():
        accepted, reason, pc, states = verdict(source)
        rows.append({"digest": digest(source), "accepted": accepted,
                     "error": reason, "pc": pc, "states": states})
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as out:
        out.write('{"seed": %d, "state_budget": %d, "programs": [\n'
                  % (SEED, STATE_BUDGET))
        out.write(",\n".join(json.dumps(row) for row in rows))
        out.write("\n]}\n")
    return rows


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    recorded = record()
    accepted = sum(row["accepted"] for row in recorded)
    print(f"{len(recorded)} programs, {accepted} accepted -> {CORPUS_PATH}")
