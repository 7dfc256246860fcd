"""verify_install — time to first result, cold.

For a fresh ``Program`` object of each library program: ``open_chain``
(verify + install), one chained read, close.  ``ebpf.verifier`` does
nearly all the host work here and none inside the timed reps of the
other five workloads.  No warm-up rep: every user pays verification
cold.  Reference: the same six installs with programs the verifier has
already accepted.  Verification costs no simulated time in this model,
so ``sim_speedup_x`` is 1 here by construction; the workload's subject
is ``host_ops_per_s``.

``scan_aggregate_program`` is verified at fanout 64, not the library
default 255: at the default one verify takes about 5 s of host time
here, half a run for a single operation (README, "Set-up findings").
"""

from __future__ import annotations

import struct
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.compact import MergeSink
from repro.compact.programs import sstable_merge_program
from repro.core import StorageBpf
from repro.core.library import (index_traversal_program,
                                linked_list_program,
                                scan_aggregate_program,
                                wisckey_get_program)
from repro.device import NVM_GEN2
from repro.ebpf.program import Program
from repro.errors import ReproError
from repro.kernel import Kernel, KernelConfig
from repro.sim import Simulator
from repro.sim.rng import RandomStreams
from repro.structures import (BTREE_PAGE_MAGIC, FANOUT_MAX, BTree,
                              FsBackend, SsTable, WisckeyStore)
from repro.structures.pages import PAGE_SIZE, encode_page

from bench_e2e.workloads.common import Rep, Workload, World

END_OF_LIST = 0xFFFFFFFFFFFFFFFF
SCAN_PAGES = 8
LIST_LENGTH = 6


class Case(NamedTuple):
    """One program made ready: where, with what, and the right answer."""

    name: str
    path: str
    make_program: Callable[[], Program]
    install_args: Tuple[int, ...]
    offset: int
    read_args: Tuple[int, ...]
    #: ``check(result, sink) -> bool``
    check: Callable
    scratch_size: int = 256


def value_found(value: int):
    return lambda result, _sink: (result.ok and result.value2 == 1
                                  and result.value == value)


class VerifyInstall(Workload):
    name = "verify_install"
    why = ("ebpf.verifier does nearly all the work here and none inside "
           "the timed reps of the other five")
    clients = "closed loop, 1 thread"
    op = latency_op = ("one program made ready: open_chain (verify + "
                       "install), one chained read, close")
    reference = "re-installing the already verified programs"
    warm_up = False
    idle_layers = ("workloads", "net", "cluster", "qos")

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        # Verifier time grows faster than the loop bound (fanout), so
        # --quick shrinks the bounds; the SSTable then has to fit one
        # page of at most ``merge_fanout`` entries.
        self.scan_fanout = 16 if quick else 64
        self.wisckey_fanout = 16 if quick else FANOUT_MAX
        self.merge_fanout = 64 if quick else FANOUT_MAX
        self.sstable_entries = 60 if quick else 1500
        #: Programs the last primary rep verified; the reference reuses
        #: them (``Program.verified`` skips the verifier at install).
        self.verified: Dict[str, Program] = {}

    def build(self, path: str) -> World:
        sim = Simulator()
        kernel = Kernel(sim, NVM_GEN2, KernelConfig())
        bpf = StorageBpf(kernel)
        cases = self._cases(kernel)
        if path == "reference":
            for case in cases:
                if case.name not in self.verified:
                    self.verified[case.name] = bpf.verify_program(
                        case.make_program())
        return World(sim, path, [kernel], [bpf], state={"cases": cases})

    def _cases(self, kernel: Kernel) -> List[Case]:
        """Lay the six structures out.  Shapes are fixed (so every seed
        does the same amount of simulated work); the seed picks the
        stored values, the probed keys, the block layout of the list and
        the order in which the six programs are made ready."""
        rng = RandomStreams(self.seed).stream("verify-install")
        fs = kernel.fs
        cases: List[Case] = []

        def tree_case(name, path, fanout, count):
            items = [(key * 3 + 1, rng.getrandbits(40)) for key in
                     range(count)]
            tree = BTree.build(FsBackend(fs, fs.create(path)), items,
                               fanout=fanout)
            key, value = items[rng.randrange(count)]
            cases.append(Case(
                name, path, lambda: index_traversal_program(fanout=fanout),
                (), tree.meta.root_offset, (key,), value_found(value)))

        tree_case("index16", "/idx16", 16, 1000)
        tree_case("index6", "/idx6", 6, 500)

        records = [(key * 2, b"payload-%d" % rng.getrandbits(32))
                   for key in range(800)]
        store = WisckeyStore.build(FsBackend(fs, fs.create("/wk")), records,
                                   fanout=min(64, self.wisckey_fanout))
        key, payload = records[rng.randrange(len(records))]
        cases.append(Case(
            "wisckey", "/wk",
            lambda: wisckey_get_program(fanout=self.wisckey_fanout), (),
            store.tree.meta.root_offset, (key,),
            lambda result, _sink, payload=payload: (
                result.ok and result.value2 == 1
                and WisckeyStore.parse_record(result.data)[1] == payload)))

        order = rng.sample(range(LIST_LENGTH + 3), LIST_LENGTH)
        blocks = bytearray((max(order) + 1) * PAGE_SIZE)
        for position, block in enumerate(order):
            following = (order[position + 1] * PAGE_SIZE
                         if position + 1 < LIST_LENGTH else END_OF_LIST)
            struct.pack_into("<QQ", blocks, block * PAGE_SIZE, following,
                             1000 + block)
        kernel.create_file("/list", bytes(blocks))
        cases.append(Case("linked_list", "/list", linked_list_program, (),
                          order[0] * PAGE_SIZE, (),
                          value_found(1000 + order[-1])))

        low, high = sorted(rng.sample(
            range(SCAN_PAGES * self.scan_fanout), 2))
        total = matched = 0
        images = []
        for page in range(SCAN_PAGES):
            entries = []
            for slot in range(self.scan_fanout):
                key = page * self.scan_fanout + slot
                value = rng.getrandbits(24)
                entries.append((key, value))
                if low <= key <= high:
                    total += value
                    matched += 1
            images.append(encode_page(BTREE_PAGE_MAGIC, 0, entries))
        kernel.create_file("/scan", b"".join(images))
        cases.append(Case(
            "scan_aggregate", "/scan",
            lambda: scan_aggregate_program(fanout=self.scan_fanout),
            (low, high, SCAN_PAGES), 0, (),
            lambda result, _sink: (result.ok and result.value == total
                                   and result.value2 == matched)))

        entries = [(key * 5, rng.getrandbits(40) + 1)
                   for key in range(self.sstable_entries)]
        SsTable.build(FsBackend(fs, fs.create("/sst")), entries)
        cases.append(Case(
            "sstable_merge", "/sst",
            lambda: sstable_merge_program(PAGE_SIZE, 64, self.merge_fanout),
            (0,),
            PAGE_SIZE, (),
            lambda result, sink: (result.ok
                                  and result.value == self.sstable_entries
                                  and sink.items() == entries),
            scratch_size=64))
        rng.shuffle(cases)
        return cases

    def run(self, world: World, op_span) -> Rep:
        sim = world.sim
        kernel = world.kernels[0]
        bpf: StorageBpf = world.bpfs[0]
        cases: List[Case] = world.state["cases"]
        cold = world.path == "primary"
        latencies: List[int] = []
        host_parts: Dict[str, float] = {}
        failed = 0
        proc = kernel.spawn_process("installer")

        def one_op(case: Case, program: Program):
            handle = yield from bpf.open_chain(
                proc, case.path, program, args=case.install_args,
                scratch_size=case.scratch_size)
            sink: Optional[MergeSink] = None
            if case.name == "sstable_merge":
                sink = handle.installation.vm.compact_sink = MergeSink()
            result = yield from handle.read_robust(case.offset,
                                                   args=case.read_args)
            yield from handle.close()
            return case.check(result, sink)

        def driver():
            nonlocal failed
            for case in cases:
                program = (case.make_program() if cold
                           else self.verified[case.name])
                start = sim.now
                host_start = time.perf_counter()
                try:
                    ok = yield from op_span(one_op(case, program))
                except ReproError:
                    ok = False
                host_parts[case.name] = time.perf_counter() - host_start
                if ok:
                    latencies.append(sim.now - start)
                    self.verified[case.name] = program
                else:
                    failed += 1

        begin = sim.now
        sim.run_process(driver())
        return Rep(ops=len(cases) - failed, attempted=len(cases),
                   failed=failed, sim_ns=sim.now - begin,
                   latencies=latencies, host_parts=host_parts)

    def self_test(self):
        class Result:
            ok, value, value2 = True, 7, 1
        return {"program_result": value_found(7)(Result, None)
                and not value_found(8)(Result, None)}
