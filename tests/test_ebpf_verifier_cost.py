"""The verifier's cost, counted rather than timed.

``VerifierStats.subsumption_checks`` counts the calls of the state
subsumption test, which is all the loop and prune checks cost beyond the
transfer function.  With a linear scan of the states at a pc it grew with
the square of the loop bound (95 checks per state explored on the merge
program); with the candidate index it stays within a small constant, on
any machine.  Since the two checks run only at prune points, on live
registers, both numbers are lower again.
"""

import random

import pytest

from repro.compact.programs import sstable_merge_program
from repro.core.hooks import storage_helpers
from repro.core.library import (index_traversal_program,
                                linked_list_program,
                                scan_aggregate_program,
                                wisckey_get_program)
from repro.ebpf import verify
from repro.ebpf.verifier import (NOT_INIT, Ptr, Scalar, State, _Table,
                                 _value_subsumes)
from repro.structures import FANOUT_MAX
from repro.structures.pages import PAGE_SIZE

HELPERS = storage_helpers()

# The six programs bench_e2e's verify_install workload makes ready, with
# (states_explored, subsumption_checks).  Before the loop and prune rules
# moved to prune points, on live registers: index16 (1167, 2107), index6
# (320, 716), wisckey (17023, 10112), linked_list (17, 0), scan_aggregate
# (8057, 10898), sstable_merge (7932, 1606).  Before the candidate index:
# the same states, except scan_aggregate 9426 (its prune scan was capped
# to the latest 32 completed states).
VERIFY_INSTALL = {
    "index16": (lambda: index_traversal_program(fanout=16), 876, 418),
    "index6": (lambda: index_traversal_program(fanout=6), 262, 125),
    "wisckey": (lambda: wisckey_get_program(fanout=FANOUT_MAX),
                10642, 1499),
    "linked_list": (linked_list_program, 17, 0),
    "scan_aggregate": (lambda: scan_aggregate_program(fanout=64),
                       3839, 1354),
    "sstable_merge": (lambda: sstable_merge_program(PAGE_SIZE, 64,
                                                    FANOUT_MAX), 6657, 1133),
}


@pytest.mark.parametrize("name", sorted(VERIFY_INSTALL))
def test_library_program_cost_is_pinned_and_linear(name):
    make_program, states, checks = VERIFY_INSTALL[name]
    stats = verify(make_program(), HELPERS)
    assert (stats.states_explored, stats.subsumption_checks) == \
        (states, checks)
    assert stats.subsumption_checks <= 16 * stats.states_explored


def test_doubling_the_loop_bound_doubles_the_checks():
    small = verify(scan_aggregate_program(fanout=64), HELPERS)
    large = verify(scan_aggregate_program(fanout=128), HELPERS)
    assert large.states_explored <= 2.5 * small.states_explored
    assert large.subsumption_checks <= 2.5 * small.subsumption_checks


# ---------------------------------------------------------------------------
# The candidate index is exact
# ---------------------------------------------------------------------------


def _random_value(rng):
    kind = rng.randrange(10)
    if kind == 0:
        return NOT_INIT
    if kind == 1:
        return Ptr("data", 256, 0, rng.randrange(4))
    low = rng.randrange(20)
    if kind < 5:
        return Scalar(low, low)
    return Scalar(low, low + rng.randrange(1, 20))


def _state(value):
    return State((value,) + (NOT_INIT,) * 10, {})


def test_candidates_are_exactly_the_states_covering_the_discriminator():
    """Nothing that could subsume is skipped, and of the states holding a
    scalar nothing is yielded that could not."""
    rng = random.Random(7)
    for _ in range(40):
        table = _Table()
        states = [_state(_random_value(rng))
                  for _ in range(rng.randrange(1, 60))]
        for seq, state in enumerate(states, 1):
            table.add(state.regs[0], seq, state)
        for _ in range(30):
            value = _random_value(rng)
            found = list(table.candidates(value))
            assert len(found) == len(set(map(id, found)))
            covering = [state for state in states
                        if _value_subsumes(state.regs[0], value)]
            assert {id(state) for state in covering} <= \
                {id(state) for state in found}
            for state in found:
                assert type(state.regs[0]) is not Scalar or state in covering


def test_states_leave_the_index_newest_first():
    rng = random.Random(11)
    table = _Table()
    states = [_state(_random_value(rng)) for _ in range(50)]
    for seq, state in enumerate(states, 1):
        table.add(state.regs[0], seq, state)
    for seq in range(len(states), 25, -1):
        table.remove_newest(states[seq - 1].regs[0], seq)
    remaining = {id(state) for state in states[:25]}
    everything = Scalar(0, 2**64 - 1)
    for value in [Scalar(c, c) for c in range(40)] + [everything]:
        for state in table.candidates(value):
            assert id(state) in remaining
    kept = (len(table.rest) + len(table.by_umin)
            + sum(len(bucket) for bucket in table.constants.values()))
    assert kept == 25 and len(table.by_umax) == len(table.by_umin)
