"""Verdict identity: the verifier against a corpus recorded at the commit
before its exploration was re-indexed (see ``verifier_corpus.py``).

The candidate index, the instruction decode and the lifted scan cap may
change how fast a verdict is reached, never the verdict: same accept or
reject, same error text at the same pc.  Two differences are allowed, both
from pruning against every completed state instead of the latest 32: an
accepted program may explore fewer states, and a program that used to run
out of state budget may get further.
"""

import dataclasses
import json
import random

import pytest

import verifier_corpus as corpus
from proofcheck import checked_run
from repro.ebpf import Vm
from repro.ebpf.vm import VmEnvironment
from repro.errors import VmFault

BUDGET_ERROR = "state budget exhausted"


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


def test_corpus_covers_both_verdicts_and_every_loop_kind(recorded):
    rows = [row for _source, row in recorded]
    accepted = sum(row["accepted"] for row in rows)
    assert 200 <= accepted <= len(rows) - 200
    errors = {row["error"] for row in rows if not row["accepted"]}
    for fragment in ("infinite loop detected", BUDGET_ERROR,
                     "without a null check", "out of bounds of 'data'",
                     "partial read of a spilled pointer"):
        assert any(fragment in error for error in errors), fragment


def test_verdicts_match_the_parent_commit(recorded):
    mismatches = []
    for index, (source, row) in enumerate(recorded):
        new = corpus.verdict(source)
        old = (row["accepted"], row["error"], row["pc"], row["states"])
        if new == old:
            continue
        if row["accepted"] and new[:3] == old[:3] and new[3] < old[3]:
            continue        # same verdict, more pruning
        if not row["accepted"] and row["error"].startswith(BUDGET_ERROR):
            continue        # got further than the parent's budget allowed
        mismatches.append((index, old, new))
    assert not mismatches, mismatches[:5]


def test_accepted_programs_stay_cheap_and_never_fault(recorded):
    """verified => no memory fault in any VM tier, on the same corpus (the
    block tier spends each program's proof here; under the proof checker
    no fact of it is contradicted); and the loop and prune checks stay
    within a constant per state explored."""
    rng = random.Random(corpus.SEED)
    for source, row in recorded:
        if not row["accepted"]:
            continue
        program, stats, error = corpus.explore(source)
        assert error is None, source
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
            vm = Vm(built, VmEnvironment(corpus.HELPERS,
                                         corpus.make_maps()), mode=mode)
            try:
                results.append(run(vm, bytearray(ctx), {
                    "data": bytearray(data),
                    "scratch": bytearray(corpus.SCRATCH_SIZE)}))
            except VmFault as fault:
                pytest.fail(f"verifier accepted but the {mode} VM "
                            f"faulted: {fault}\n{source}")
        assert results.count(results[0]) == 4, source
