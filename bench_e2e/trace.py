"""Outside-in span trace: wraps public entry points of every layer.

Imported only for ``--trace 1`` runs; untraced reps never load this
module.  :func:`install` swaps a fixed list of public functions and
methods of ``repro`` for timing wrappers, :func:`uninstall` puts the
originals back.  Nothing under ``src/`` changes.

A span is ``{op_id, span_id, parent_id, layer, name, host_start_ns,
host_end_ns, sim_start_ns, sim_end_ns}`` plus the two self times.  The
parent of a span is whatever span is open on the *host* call stack when
it starts, so spans nest exactly like the Python calls that made them.

Generator entry points (everything that consumes simulated time) are
driven by hand, one ``send`` at a time, and each resume is timed
separately: host time is the sum of the resumes, so time a process
spends parked in the event queue is nobody's host time, while its
simulated duration is ``sim.now`` at exit minus at entry.

Self time is duration minus the part covered by child spans.  Host self
times of all spans sum exactly (integer ns) to the root; inside one
operation the simulated self times sum exactly to the operation's
simulated latency.  :func:`check_conservation` asserts both.

Known limit: work a process does in *another* process on an operation's
behalf is not a child of that operation.  Chain hops run in interrupt
context, and a storage target serves an RPC in its own process, so
under chains device and IRQ time shows up as ``core`` self time of the
waiting ``read_chain`` span, and over the network target-side work
shows up as ``net`` self time of the waiting ``Connection.call``.  Such
spans carry ``op_id`` 0.  Per-layer device figures therefore come from
the ``device.*`` counters, not from the span view.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Tracer", "SetupProbe", "install", "uninstall",
           "check_conservation", "summarise", "write_jsonl"]

# Span record layout (a list, for speed).
SPAN_ID, PARENT, OP, LAYER, NAME, H_START, H_END, S_START, S_END, \
    H_TOTAL, H_CHILD, S_CHILD = range(12)


class Tracer:
    """Collects spans while :attr:`active`; inert otherwise."""

    def __init__(self):
        self.reset(lambda: 0)
        #: Root span of one operation: what workloads get as ``op_span``.
        self.op_span = self.wrap_generator("bench", "op", _delegate,
                                           new_op=True)

    def reset(self, clock: Callable[[], int]) -> None:
        """Forget everything; ``clock`` is ``sim.now`` of the next world."""
        self.active = False
        self.spans: List[list] = []
        self.stack: List[list] = []
        self.clock = clock
        #: Connections seen by ``Connection.call`` (for their counters).
        self.connections: set = set()
        #: NVMe commands submitted: device -> opcode -> count.
        self.submitted: Dict[Any, Dict[str, int]] = {}
        self.vm_instructions = 0
        self.vm_helper_calls = 0
        self.fabric_frames = 0
        self.fabric_bytes = 0

    # -- span lifecycle ------------------------------------------------

    def open(self, layer: str, name: str, new_op: bool = False) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        span_id = len(self.spans) + 1
        if new_op:
            op_id = span_id
        else:
            op_id = parent[OP] if parent is not None else 0
        span = [span_id, parent[SPAN_ID] if parent is not None else 0,
                op_id, layer, name, 0, 0, self.clock(), -1, 0, 0, 0]
        self.spans.append(span)
        return span

    def enter(self, span: list) -> int:
        self.stack.append(span)
        start = perf_counter_ns()
        if not span[H_START]:
            span[H_START] = start
        return start

    def leave(self, span: list, start: int) -> None:
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        elapsed = end - start
        span[H_END] = end
        span[H_TOTAL] += elapsed
        if stack:
            stack[-1][H_CHILD] += elapsed

    def close(self, span: list) -> None:
        if span[S_END] != -1:
            return  # finalised already (a parked generator collected late)
        span[S_END] = self.clock()
        if span[PARENT]:
            self.spans[span[PARENT] - 1][S_CHILD] += \
                span[S_END] - span[S_START]

    def finalise(self) -> None:
        """Stop tracing and close spans still open (operations in flight
        when the rep ended), children before parents."""
        self.active = False
        for span in reversed(self.spans):
            self.close(span)

    # -- wrappers ------------------------------------------------------

    def wrap_function(self, layer: str, name: str, fn: Callable,
                      after: Optional[Callable] = None) -> Callable:
        """Time a plain call.  ``after(tracer, args, result)`` may read
        exact counts off the arguments or the result."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(layer, name)
            start = tracer.enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(span, start)
                tracer.close(span)
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_generator(self, layer: str, name: str, fn: Callable,
                       new_op: bool = False,
                       before: Optional[Callable] = None) -> Callable:
        """Time a generator entry point, one resume at a time."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = yield from fn(*args, **kwargs)
                return result
            if before is not None:
                before(tracer, args)
            span = tracer.open(layer, name, new_op)
            generator = fn(*args, **kwargs)
            value: Any = None
            error: Optional[BaseException] = None
            try:
                while True:
                    start = tracer.enter(span)
                    try:
                        if error is not None:
                            yielded = generator.throw(error)
                        else:
                            yielded = generator.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        tracer.leave(span, start)
                    try:
                        value = yield yielded
                        error = None
                    except GeneratorExit:
                        generator.close()
                        raise
                    except BaseException as exc:  # re-raised inside fn
                        value, error = None, exc
            finally:
                tracer.close(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def wrap_spawn(self, spawn: Callable) -> Callable:
        """Give every simulated process a span of its own, in the layer
        its outermost generator's code lives in (the way the repo's own
        profiler names a process), so the engine's self time is event
        dispatch only.  Checked per resume: processes started during the
        build (device service loops, connection demultiplexers) are
        traced from their first resume inside the traced rep."""
        tracer = self

        def traced_spawn(sim, generator, name: str = ""):
            code = getattr(generator, "gi_code", None)
            if code is None:
                return spawn(sim, generator, name)
            layer, label = _site(code)
            return spawn(sim, tracer._drive(generator, layer, label),
                         name or getattr(generator, "__name__", "process"))

        traced_spawn.__wrapped__ = spawn
        return traced_spawn

    def _drive(self, generator, layer: str, label: str):
        span = None
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                traced = self.active
                if traced:
                    if span is None:
                        span = self.open(layer, label)
                    start = self.enter(span)
                try:
                    if error is not None:
                        yielded = generator.throw(error)
                    else:
                        yielded = generator.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    if traced:
                        self.leave(span, start)
                try:
                    value = yield yielded
                    error = None
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # re-raised inside generator
                    value, error = None, exc
        finally:
            if span is not None:
                self.close(span)


def _delegate(generator):
    result = yield from generator
    return result


_SITES: Dict[Any, Tuple[str, str]] = {}
_KNOWN_LAYERS = ("sim", "ebpf", "device", "kernel", "core", "structures",
                 "workloads", "net", "cluster", "qos", "compact")


def _site(code) -> Tuple[str, str]:
    """(layer, label) of a code object: the ``repro`` package its file
    sits in; the benchmark's own code and anything else is ``bench``."""
    site = _SITES.get(code)
    if site is None:
        parts = code.co_filename.replace("\\", "/").split("/")
        layer = "bench"
        if "repro" in parts[:-1]:
            package = parts[len(parts) - 1 - parts[::-1].index("repro") + 1]
            if package in _KNOWN_LAYERS:
                layer = package
        name = getattr(code, "co_qualname", None) or code.co_name
        site = _SITES[code] = (layer, name)
    return site


class SetupProbe:
    """Counts verifier and structure-build work from process start.

    Always on in a ``--trace 1`` run (three cheap wrappers on functions
    that run a handful of times), so set-up work is seen even though the
    span tracer is inactive then.
    """

    def __init__(self):
        self.verify_calls = 0
        self.verify_ns = 0
        self.verify_states = 0
        self.build_ns = 0

    def wrap_verify(self, fn):
        probe = self

        def verify(*args, **kwargs):
            start = perf_counter_ns()
            stats = fn(*args, **kwargs)
            probe.verify_ns += perf_counter_ns() - start
            probe.verify_calls += 1
            probe.verify_states += stats.states_explored
            return stats

        verify.__wrapped__ = fn
        return verify

    def wrap_build(self, fn):
        probe = self
        depth = [0]

        def build(*args, **kwargs):
            # WisckeyStore.build calls BTree.build: count the outer only.
            depth[0] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    probe.build_ns += perf_counter_ns() - start

        build.__wrapped__ = fn
        return build


# ---------------------------------------------------------------------------
# Patching
# ---------------------------------------------------------------------------

#: (object, attribute, original) for everything currently replaced.
_PATCHED: List[Tuple[Any, str, Any]] = []


def _set(owner: Any, attribute: str, replacement: Any) -> None:
    original = owner.__dict__[attribute]
    _PATCHED.append((owner, attribute, original))
    setattr(owner, attribute, replacement)


def _patch_method(cls: type, attribute: str, wrap: Callable) -> None:
    raw = cls.__dict__[attribute]
    if isinstance(raw, staticmethod):
        _set(cls, attribute, staticmethod(wrap(raw.__func__)))
    else:
        _set(cls, attribute, wrap(raw))


def _patch_function(module: Any, attribute: str, wrap: Callable) -> None:
    """Replace a module-level function everywhere it has been imported
    by name (``from x import f`` copies the reference)."""
    original = getattr(module, attribute)
    replacement = wrap(original)
    for name, candidate in list(sys.modules.items()):
        if candidate is None or not (name == "repro"
                                     or name.startswith("repro.")
                                     or name.startswith("bench_e2e.")):
            continue
        for key, value in list(vars(candidate).items()):
            if value is original:
                _set(candidate, key, replacement)


def install_probe(probe: SetupProbe) -> None:
    """Arm the always-on set-up probe (verify, BTree/SsTable builds)."""
    import repro.ebpf.verifier as verifier
    from repro.structures import BTree, SsTable, WisckeyStore
    _patch_function(verifier, "verify", probe.wrap_verify)
    for cls in (BTree, SsTable, WisckeyStore):
        _patch_method(cls, "build", probe.wrap_build)


def install(tracer: Tracer) -> int:
    """Wrap the fixed list of public entry points.  Returns the mark to
    hand to :func:`uninstall`."""
    mark = len(_PATCHED)
    import repro.ebpf.verifier as verifier
    import repro.net.wire as wire
    import repro.structures.pages as pages
    from repro.cluster import ClusterClient, StorageCluster
    from repro.compact import CompactionEngine, MergeSink
    from repro.core import StorageBpf
    from repro.core.extent_cache import CacheEntry, NvmeExtentCache
    from repro.device import BlockDevice, NvmeDevice
    from repro.ebpf.vm import Vm
    from repro.kernel import ExtFs, Kernel
    from repro.net import Connection, NetworkFabric
    from repro.qos import QosManager
    from repro.qos.shapers import WfqScheduler
    from repro.sim import Simulator
    from repro.structures import BTree, SsTable
    from repro.workloads import YcsbWorkload

    def gen(cls, layer, *names, before=None):
        for name in names:
            _patch_method(cls, name, lambda fn, name=name:
                          tracer.wrap_generator(
                              layer, f"{cls.__name__}.{name}", fn,
                              before=before))

    def fun(cls, layer, *names, after=None):
        for name in names:
            _patch_method(cls, name, lambda fn, name=name:
                          tracer.wrap_function(
                              layer, f"{cls.__name__}.{name}", fn,
                              after=after))

    def count_vm(tr, _args, result):
        tr.vm_instructions += result.instructions
        tr.vm_helper_calls += result.helper_calls

    def count_submit(tr, args, _result):
        opcodes = tr.submitted.setdefault(args[0], {})
        opcodes[args[1].opcode] = opcodes.get(args[1].opcode, 0) + 1

    def count_frame(tr, args, _result):
        tr.fabric_frames += 1
        tr.fabric_bytes += len(args[2])

    def note_connection(tr, args):
        tr.connections.add(args[0])

    fun(Simulator, "sim", "run")
    _patch_method(Simulator, "spawn", tracer.wrap_spawn)
    gen(Kernel, "kernel", "sys_open", "sys_pread", "sys_pwrite",
        "sys_fsync", "sys_ioctl", "run_irq")
    fun(ExtFs, "kernel", "read_sync", "write_sync")
    fun(NvmeDevice, "device", "submit", after=count_submit)
    fun(BlockDevice, "device", "read", "write")
    _patch_function(verifier, "verify", lambda fn: tracer.wrap_function(
        "ebpf", "verify", fn))
    fun(Vm, "ebpf", "run", after=count_vm)
    gen(StorageBpf, "core", "install", "open_chain", "read_chain",
        "read_chain_robust")
    fun(NvmeExtentCache, "core", "install")
    fun(CacheEntry, "core", "translate")
    _patch_function(pages, "search_page", lambda fn: tracer.wrap_function(
        "structures", "search_page", fn))
    fun(BTree, "structures", "build")
    fun(SsTable, "structures", "build")
    fun(YcsbWorkload, "workloads", "next_operation")
    gen(Connection, "net", "call", before=note_connection)
    for name in sorted(vars(wire)):
        if name.startswith(("encode_", "decode_")):
            _patch_function(wire, name, lambda fn, name=name:
                            tracer.wrap_function("net", f"wire.{name}", fn))
    fun(NetworkFabric, "net", "transmit", after=count_frame)
    gen(ClusterClient, "cluster", "put", "get", "index_get")
    gen(StorageCluster, "cluster", "replicate")
    fun(QosManager, "qos", "admit", "chain_pace")
    fun(WfqScheduler, "qos", "push", "pop")
    gen(CompactionEngine, "compact", "compact_tree")
    fun(MergeSink, "compact", "emit", "drop")
    return mark


def uninstall(mark: int = 0) -> None:
    """Put replaced attributes back, newest first, down to ``mark``."""
    while len(_PATCHED) > mark:
        owner, attribute, original = _PATCHED.pop()
        setattr(owner, attribute, original)


# ---------------------------------------------------------------------------
# Reading the trace
# ---------------------------------------------------------------------------


def host_self(span: list) -> int:
    return span[H_TOTAL] - span[H_CHILD]


def sim_self(span: list) -> int:
    """Simulated self time.  ``Simulator.run`` spans get 0: the engine
    consumes no simulated time, and its children run concurrently, so
    "duration minus children" has no meaning there."""
    if span[LAYER] == "sim":
        return 0
    return span[S_END] - span[S_START] - span[S_CHILD]


def check_conservation(spans: List[list]) -> List[str]:
    """Every violated conservation law, as text (empty = all hold)."""
    problems: List[str] = []
    by_id = {span[SPAN_ID]: span for span in spans}
    host_total = sum(host_self(span) for span in spans)
    roots = [span for span in spans if span[PARENT] == 0]
    root_total = sum(span[H_TOTAL] for span in roots)
    if host_total != root_total:
        problems.append(f"host self times sum to {host_total} ns, root "
                        f"spans to {root_total} ns")
    op_host: Dict[int, int] = {}
    op_sim: Dict[int, int] = {}
    for span in spans:
        if host_self(span) < 0:
            problems.append(f"span {span[SPAN_ID]} {span[NAME]}: negative "
                            f"host self time")
        if sim_self(span) < 0:
            problems.append(f"span {span[SPAN_ID]} {span[NAME]}: negative "
                            f"simulated self time")
        if span[OP]:
            op_host[span[OP]] = op_host.get(span[OP], 0) + host_self(span)
            op_sim[span[OP]] = op_sim.get(span[OP], 0) + sim_self(span)
    for op_id, total in op_host.items():
        root = by_id[op_id]
        if total != root[H_TOTAL]:
            problems.append(f"op {op_id}: host self times sum to {total} "
                            f"ns, its root span to {root[H_TOTAL]} ns")
        sim_total = root[S_END] - root[S_START]
        if op_sim[op_id] != sim_total:
            problems.append(f"op {op_id}: simulated self times sum to "
                            f"{op_sim[op_id]} ns, its latency is "
                            f"{sim_total} ns")
        if len(problems) > 20:
            break
    return problems


def summarise(spans: Iterable[list]) -> Dict[str, Dict[str, float]]:
    """Per layer: calls, host self ns, simulated self ns inside ops; plus
    per (layer, name) host self ns and calls under ``"names"``."""
    layers: Dict[str, Dict[str, float]] = {}
    names: Dict[str, List[int]] = {}
    for span in spans:
        row = layers.setdefault(span[LAYER],
                                {"calls": 0, "host_self_ns": 0,
                                 "sim_self_ns": 0})
        row["calls"] += 1
        row["host_self_ns"] += host_self(span)
        if span[OP]:
            row["sim_self_ns"] += sim_self(span)
        stat = names.setdefault(span[NAME], [0, 0])
        stat[0] += 1
        stat[1] += host_self(span)
    layers["names"] = names  # type: ignore[assignment]
    return layers


def write_jsonl(spans: Iterable[list], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps({
                "op_id": span[OP], "span_id": span[SPAN_ID],
                "parent_id": span[PARENT], "layer": span[LAYER],
                "name": span[NAME], "host_start_ns": span[H_START],
                "host_end_ns": span[H_END], "sim_start_ns": span[S_START],
                "sim_end_ns": span[S_END],
                "host_self_ns": host_self(span),
                "sim_self_ns": sim_self(span)}) + "\n")
