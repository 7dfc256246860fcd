"""Generated schedules for §4's ownership claim: unlinks inside chain hops.

The extent cache's claim (``repro.core.extent_cache``) is that a chained
resubmission "can only ever reach blocks belonging to that file": an
unmap invalidates the snapshot, and the chain ends ``EEXTENT`` instead of
sending.  Between a hop's completion and its next send, simulated time
passes (IRQ entry, the program's run, the driver charge, a retry's
backoff, a split's BIO charge), so the check must hold at every send, not
only when the hop starts.

Each case runs one chain on a clean world and reads its interrupt windows
off the bus: from each chain ``nvme_complete`` to the chain's next
``nvme_submit``.  The window is split into ``POINTS`` equal strata, and one
seeded instant is drawn in each.  For every instant the world is rebuilt
and ``fs.unlink`` of the open file lands at that instant.  A bus
subscriber checks every chain send against the inode's live extents at
submit time.  A violation has one of these names:

* ``stray-recycle``: a ``bpf-recycle`` submission outside the live map;
* ``stray-retry``: a ``chain-retry`` submission outside the live map;
* ``raised``: an exception escaped ``sim.run()`` (the world died).

Everything is seed-deterministic, so a failing instant replays exactly.
``POINTS`` bounds the budget; raise it for a local sweep.  This is a
seed for a fuller ownership checker: bytes that reach the application
(a split or EXEC_CHAIN), sends from thread context, rename-over, punch,
journal and crash schedules are not covered here.
"""

import random

import pytest

from chainutil import build_machine, install_walker, linked_file_bytes
from repro.device.blockdev import SECTOR_SIZE
from repro.faults import FaultSpec
from repro.kernel import ChainStatus, IoUring
from repro.kernel.extfs import BLOCK_SIZE
from repro.obs import TraceBus, events

#: Instants per interrupt window: one world each.
POINTS = 4
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE
ORDER = [3, 5, 0, 7, 2, 6, 1, 4]
#: The sources a chain sends from interrupt context, by violation name.
CHECKED = {"bpf-recycle": "stray-recycle", "chain-retry": "stray-retry"}


class World:
    """One machine with ``/list`` open and the walker installed, a bus
    recording the chain's commands, and the ownership checker on it."""

    def __init__(self, case):
        self.bus = TraceBus(enabled=True)
        self.sim, self.kernel, self.bpf = build_machine(
            bus=self.bus, fault_plan=case.get("fault_plan"),
            max_extent_blocks=case.get("max_extent_blocks", 32768))
        self.kernel.create_file("/list", case["data"])
        self.inode = self.kernel.fs.lookup("/list")
        block_size = case.get("block_size", 4096)
        if case.get("fault_block") is not None:
            lba = self.inode.extents.lookup(case["fault_block"]) * \
                SECTORS_PER_BLOCK
            self.kernel.fault_plan.inject(lba, times=2)
        self.proc, self.fd = install_walker(self.sim, self.kernel, self.bpf,
                                            "/list", block_size=block_size)
        self.read = (case["offset"], block_size)
        self.uring = case.get("uring", False)
        self.chain_events = []
        self.violations = []
        self.bus.subscribe(self._on_complete, events.NVME_COMPLETE)
        self.bus.subscribe(self._on_submit, events.NVME_SUBMIT)

    def _on_complete(self, event):
        if event.get("path") == "chain":
            self.chain_events.append(("complete", event.ts))

    def _on_submit(self, event):
        if event.get("path") != "chain" or event.get("rejected"):
            return
        self.chain_events.append(("submit", event.ts))
        name = CHECKED.get(event.get("source"))
        if name is None:
            return
        live = {extent.phys_block + index for extent in self.inode.extents
                for index in range(extent.count)}
        lba, sectors = event.get("lba"), event.get("sectors")
        blocks = range(lba // SECTORS_PER_BLOCK,
                       (lba + sectors - 1) // SECTORS_PER_BLOCK + 1)
        if not live.issuperset(blocks):
            self.violations.append((name, event.ts, lba))

    def unlink_at(self, instant):
        def unlink():
            yield self.sim.timeout(instant - self.sim.now)
            self.kernel.fs.unlink("/list")

        self.sim.spawn(unlink(), name="unlink")

    def run(self):
        """The chain's status, or ``"raised"`` (recorded as a violation)."""
        kernel, proc = self.kernel, self.proc
        offset, length = self.read

        def reader():
            if not self.uring:
                result = yield from self.bpf.read_chain(
                    proc, self.fd, offset, length)
                return result.status
            ring = IoUring(kernel, proc)
            ring.prep_read(self.fd, offset, length, tagged=True)
            (cqe,) = yield from ring.enter(wait_nr=1)
            return cqe.result.status

        try:
            return kernel.run_syscall(reader())
        except Exception as exc:  # the world died: that is the finding
            self.violations.append(("raised", self.sim.now,
                                    f"{type(exc).__name__}: {exc}"))
            return "raised"

    def windows(self):
        """``(complete, next submit)`` of every interrupt-context hop."""
        spans = []
        for (kind, ts), (next_kind, next_ts) in zip(self.chain_events,
                                                    self.chain_events[1:]):
            if (kind, next_kind) == ("complete", "submit"):
                spans.append((ts, next_ts))
        return spans


def instants(windows, seed):
    """``POINTS`` seeded instants per window, one in each equal stratum."""
    rng = random.Random(seed)
    chosen = []
    for start, end in windows:
        width = end - start
        for stratum in range(POINTS):
            low = start + stratum * width // POINTS
            high = start + (stratum + 1) * width // POINTS
            chosen.append(rng.randint(low, max(low, high - 1)))
    return chosen


CASES = {
    # The NVMe hook behind sys_pread: 7 recycles from IRQ context.
    "nvme-hook": {"data": linked_file_bytes(ORDER), "offset": ORDER[0] * 4096},
    # The same walk started by a tagged io_uring SQE.
    "uring-sqe": {"data": linked_file_bytes(ORDER), "offset": ORDER[0] * 4096,
                  "uring": True},
    # The third block fails twice: two chain-retry sends after a backoff.
    "faulted-retry": {"data": linked_file_bytes(ORDER),
                      "offset": ORDER[0] * 4096,
                      "fault_plan": FaultSpec(seed=1), "fault_block": ORDER[2]},
    # 8 KiB hops over 2-block extents: the second hop is a mid-chain split.
    "split": {"data": linked_file_bytes(list(range(11))) + bytes(4096),
              "offset": 0, "block_size": 8192, "max_extent_blocks": 2},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_chain_send_reaches_a_block_its_file_gave_up(name):
    case = CASES[name]
    clean = World(case)
    assert clean.run() in (ChainStatus.OK, ChainStatus.SPLIT_FALLBACK)
    assert clean.violations == []
    windows = clean.windows()
    assert windows, "the chain has no interrupt-context hop"
    outcomes = {}
    findings = []
    for instant in instants(windows, seed=sorted(CASES).index(name)):
        world = World(case)
        world.unlink_at(instant)
        status = world.run()
        outcomes[status] = outcomes.get(status, 0) + 1
        findings.extend((instant,) + violation
                        for violation in world.violations)
    assert findings == []
    # The schedule reached chains in flight: some unlinks landed mid-chain.
    assert outcomes.get(ChainStatus.EXTENT_INVALIDATED, 0) > 0, outcomes
