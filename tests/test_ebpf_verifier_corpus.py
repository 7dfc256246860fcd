"""Verdict identity: the verifier against a corpus recorded at the commit
before maps and the pointer-argument helpers were removed (see
``verifier_corpus.py``), whose verdicts, error pcs, state counts and
exploration digest this one reproduces exactly.

The rules below were written when the exploration was re-indexed: the
candidate index, the instruction decode, the lifted scan cap and
running the loop and prune rules only at prune points, on live registers,
may change how fast a verdict is reached, never the verdict: same accept
or reject, same error text, and the same error pc with one exception.
Since the loop rule runs only at jump targets, an ``infinite loop
detected`` is reported at the jump target where the rule caught the loop,
so that pc may move, but only to a jump target of the program.  A program
that used to run out of state budget may get further (pruning against
every completed state instead of the latest 32, and pruning on live
registers, both prune more).  How many states the accepted programs
explore is pinned as one exact sum, so a pruning regression fails by
number even though a single row may explore a few more states than the
recording did (a state the recording pruned at an instruction that is
not a jump target now runs on to the next prune point or to ``exit``).
"""

import dataclasses
import hashlib
import json
import random

import pytest

import verifier_corpus as corpus
from proofcheck import checked_run
from repro.ebpf import Vm
from repro.errors import VmFault

BUDGET_ERROR = "state budget exhausted"
LOOP_ERROR = "infinite loop detected"
#: Measured at the commit before maps and the pointer-argument helpers
#: were removed, over the corpus as it is now (no program calls a helper).
ACCEPTED, ACCEPTED_STATES = 267, 57_195
#: `exploration_digest` at that same commit, over the same corpus.
EXPLORATION_DIGEST = \
    "4427a67528ddc7065cbaf54b0232227fcce890ff179bc8d3b00ef3b56e8b3e50"


@pytest.fixture(scope="module")
def recorded():
    with open(corpus.CORPUS_PATH) as source:
        document = json.load(source)
    assert document["seed"] == corpus.SEED
    assert document["state_budget"] == corpus.STATE_BUDGET
    rows = document["programs"]
    sources = list(corpus.programs())
    assert len(rows) == len(sources) >= 500
    assert [row["digest"] for row in rows] == \
        [corpus.digest(source) for source in sources], \
        "the generator no longer produces the recorded programs"
    return list(zip(sources, rows))


@pytest.fixture(scope="module")
def verdicts(recorded):
    return [corpus.verdict(source) for source, _row in recorded]


def test_corpus_covers_both_verdicts_and_every_loop_kind(recorded):
    rows = [row for _source, row in recorded]
    accepted = sum(row["accepted"] for row in rows)
    assert 200 <= accepted <= len(rows) - 200
    errors = {row["error"] for row in rows if not row["accepted"]}
    for fragment in (LOOP_ERROR, BUDGET_ERROR,
                     "out of bounds of 'data'",
                     "partial read of a spilled pointer"):
        assert any(fragment in error for error in errors), fragment


def _jump_targets(source):
    return {pc + 1 + insn.offset
            for pc, insn in enumerate(corpus.build(source).instructions)
            if insn.opcode.startswith("j")}


def test_verdicts_match_the_parent_commit(recorded, verdicts):
    mismatches = []
    for index, ((source, row), new) in enumerate(zip(recorded, verdicts)):
        old = (row["accepted"], row["error"], row["pc"])
        if new[:3] == old:
            continue
        if not row["accepted"] and row["error"].startswith(BUDGET_ERROR):
            continue        # got further than the parent's budget allowed
        if new[:2] == old[:2] == (False, LOOP_ERROR) and \
                new[2] in _jump_targets(source):
            continue        # the loop rule caught it at a jump target
        mismatches.append((index, old, new))
    assert not mismatches, mismatches[:5]


def test_accepted_programs_explore_a_pinned_number_of_states(verdicts):
    """Programs accepted now and the states they explore, summed."""
    accepted = [states for _accepted, _error, _pc, states in verdicts
                if states is not None]
    assert (len(accepted), sum(accepted)) == (ACCEPTED, ACCEPTED_STATES)


def test_accepted_programs_stay_cheap_and_never_fault(recorded):
    """verified => no memory fault in any VM tier, over every program of
    the corpus the verifier accepts now (the block tier spends each
    program's proof here; under the proof checker no fact of it is
    contradicted); and the loop and prune checks stay within a constant
    per state explored."""
    rng = random.Random(corpus.SEED)
    for source, _row in recorded:
        program, stats, error = corpus.explore(source)
        if error is not None:
            continue
        assert stats.subsumption_checks <= 16 * stats.states_explored, source
        ctx = bytearray(corpus.LAYOUT.size)
        for offset in (40, 48, 56, 64):       # arg0..arg3
            value = rng.choice([0, 1, 7, 255, rng.getrandbits(64)])
            ctx[offset:offset + 8] = value.to_bytes(8, "little")
        data = bytes(rng.getrandbits(8) for _ in range(corpus.DATA_SIZE))
        guarded = dataclasses.replace(program, proof=None)
        results = []
        for built, mode, run in ((program, "interp", Vm.run),
                                (guarded, "block", Vm.run),
                                (program, "block", Vm.run),
                                (program, "interp", checked_run)):
            vm = Vm(built, corpus.HELPERS, mode=mode)
            try:
                results.append(run(vm, bytearray(ctx), {
                    "data": bytearray(data),
                    "scratch": bytearray(corpus.SCRATCH_SIZE)}))
            except VmFault as fault:
                pytest.fail(f"verifier accepted but the {mode} VM "
                            f"faulted: {fault}\n{source}")
        assert results.count(results[0]) == 4, source


def exploration_digest(sources):
    """One digest of how the verifier explores every program: an accepted
    program's states explored and subsumption checks, a rejected one's
    error text and pc, in corpus order."""
    digest = hashlib.sha256()
    for source in sources:
        _program, stats, error = corpus.explore(source)
        if error is None:
            row = (True, stats.states_explored, stats.subsumption_checks)
        else:
            row = (False, error.reason, error.pc)
        digest.update(repr(row).encode())
    return digest.hexdigest()


def test_every_program_explores_exactly_as_before(recorded):
    """The exact fence the tests above leave open: no per-program state
    count, no subsumption count and no loop-error pc may move at all."""
    assert exploration_digest(source for source, _row in recorded) == \
        EXPLORATION_DIGEST
