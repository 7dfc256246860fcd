"""The run protocol for one workload in this (fresh) process.

``--trace 0`` — set-up, one untimed warm-up rep, timed reps with
tracing and profiler off until ``--seconds`` have passed, one reference
rep, then two more fresh processes repeat only the set-up so
``setup_s`` is a median of three cold starts.  Reports the end-to-end
metrics.

``--trace 1`` — the same set-up under a probe that counts verifier and
structure-build work, a few untraced reps (the yardstick for overhead),
one span-traced rep of each path, one rep under
``repro.perf.profiling()`` (only for the deterministic engine counts).
Reports the per-layer metrics.

Every rep rebuilds its world from the seed; simulated results and every
exact counter must be identical across reps, traced or not.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from statistics import median
from typing import Callable, Dict, List, Optional

from bench_e2e import layers
from bench_e2e.metrics import (END_TO_END, LAYERS, PER_LAYER,
                               percentile_ns, tail_percentile)
from bench_e2e.workloads import WORKLOADS
from bench_e2e.workloads.common import Rep, Workload, World, identity_span

__all__ = ["run_workload", "setup_only", "Outcome"]

SETUP_CHILDREN = 2
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


class Executed:
    """One rep: its result, host cost, and exact layer counters."""

    def __init__(self, rep: Rep, wall_s: float, cpu_s: float,
                 counters: Dict[str, float], world: World):
        self.rep = rep
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.counters = counters
        self.world = world

    def signature(self) -> tuple:
        return self.rep.signature(), tuple(sorted(self.counters.items()))


class Outcome:
    """What a run reports: the contract's four keys plus the evidence."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.metrics: Dict[str, float] = {}
        self.checks: Dict[str, bool] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())

    def count(self, rep: Rep) -> None:
        self.attempted += rep.attempted
        self.failed += rep.failed
        for name, count in rep.violations.items():
            if count:
                self.checks[f"clean.{name}"] = False


def prepare(workload: Workload, path: str) -> World:
    world = workload.build(path)
    layers.watch_unmaps(world)
    return world


def execute(workload: Workload, world: World,
            op_span: Callable = identity_span,
            run: Optional[Callable] = None) -> Executed:
    """Run one rep over a prepared world; only ``run`` is timed."""
    run = run or workload.run
    gc.collect()  # the previous world's garbage is not this rep's cost
    before = layers.snapshot(world)
    cpu = time.process_time()
    wall = time.perf_counter()
    rep = run(world, op_span)
    wall = time.perf_counter() - wall
    cpu = time.process_time() - cpu
    after = layers.snapshot(world)
    return Executed(rep, wall, cpu, layers.counters(before, after, rep),
                    world)


def finish(workload: Workload, executed: Executed, outcome: Outcome) -> None:
    """The untimed checks after a rep, and the failure accounting."""
    # Let operations in flight at the deadline land first: checks then
    # see a quiescent system, and no process is left parked mid-syscall
    # for the garbage collector to unwind.
    executed.world.sim.run()
    workload.verify(executed.world, executed.rep)
    outcome.count(executed.rep)
    executed.world = None  # let the world go: reps must not pile up in RSS


def make_ready(workload: Workload, outcome: Outcome):
    """Everything ``setup_s`` covers: set-up, the first build and, where
    the workload has one, the warm-up rep.  Returns ``(warm-up reps,
    world still unused)``."""
    workload.setup()
    world = prepare(workload, "primary")
    if not workload.warm_up:
        return [], world
    warm = execute(workload, world)
    finish(workload, warm, outcome)
    return [warm], None


def setup_only(name: str, seed: int, started: float) -> float:
    """Process start to ready-for-the-first-timed-rep, in seconds."""
    workload = WORKLOADS[name](seed, quick=False)
    make_ready(workload, Outcome(workload))
    return time.perf_counter() - started


def _fresh_setups(name: str, seed: int) -> List[float]:
    """``setup_s`` of SETUP_CHILDREN more fresh interpreters."""
    samples = []
    command = [sys.executable, RUN_PY, "--workload", name, "--seed",
               str(seed), "--setup-only"]
    for _ in range(SETUP_CHILDREN):
        done = subprocess.run(command, capture_output=True, text=True,
                              check=True, timeout=170)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _latency_metrics(rep: Rep, outcome: Outcome) -> None:
    if not rep.latencies:
        outcome.checks["latency_samples_exist"] = False
        outcome.metrics.update(sim_p50_us=0.0, sim_p99_us=0.0)
        return
    ordered = sorted(rep.latencies)
    fraction, tail = tail_percentile(ordered)
    outcome.metrics["sim_p50_us"] = percentile_ns(ordered, 0.5) / 1000
    outcome.metrics["sim_p99_us"] = tail / 1000
    if fraction != 0.99:
        outcome.notes.append(
            f"sim_p99_us is p{fraction * 100:.1f}: only {len(ordered)} "
            f"latency samples, the highest percentile with 10 beyond it")
    else:
        outcome.notes.append(f"latency samples: {len(ordered)}")


def fast_quartile(walls: List[float]) -> float:
    """The rep time ``host_ops_per_s`` is computed from: the 25th
    percentile of the timed reps.  Every rep does identical work, and
    the box's other tenants can only slow a rep down, so the fast
    quartile estimates the undisturbed machine; measured here, its
    run-to-run spread is a third of the median's (README, "Bounds")."""
    return sorted(walls)[len(walls) // 4]


def undisturbed_rep_s(timed: List["Executed"]) -> float:
    """Host seconds of one undisturbed rep.  Where a rep is a few long
    operations timed one by one (``Rep.host_parts``), the fast quartile
    is taken per operation and summed: a one-second disturbance then
    spoils one operation of one rep, not the whole rep."""
    parts = timed[0].rep.host_parts
    if not parts:
        return fast_quartile([run.wall_s for run in timed])
    return sum(fast_quartile([run.rep.host_parts[name] for run in timed])
               for name in parts)


def _sim_ops_per_s(rep: Rep) -> float:
    return rep.ops * 1e9 / max(1, rep.sim_ns)


def _identical(reps: List[Executed]) -> bool:
    first = reps[0].signature()
    return all(other.signature() == first for other in reps[1:])


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 quick: bool, reps: Optional[int], trace_out: Optional[str],
                 started: float) -> Outcome:
    workload = WORKLOADS[name](seed, quick)
    outcome = Outcome(workload)
    for check, caught in workload.self_test().items():
        outcome.checks[f"selftest.{check}"] = bool(caught)
    if trace:
        _traced_run(workload, outcome, seconds, reps, trace_out)
    else:
        _timed_run(workload, outcome, seed, seconds, reps, started)
    return outcome


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def _timed_reps(workload: Workload, outcome: Outcome, seconds: float,
                reps: Optional[int], world: Optional[World] = None,
                ) -> List[Executed]:
    """Timed primary reps: exactly ``reps`` of them, or as many as start
    within ``seconds`` (at least one).  ``world`` is an already built
    world for the first of them."""
    done: List[Executed] = []
    begin = time.perf_counter()
    while (len(done) < reps if reps
           else not done or time.perf_counter() - begin < seconds):
        executed = execute(workload, world or prepare(workload, "primary"))
        world = None
        finish(workload, executed, outcome)
        done.append(executed)
    return done


def _timed_run(workload: Workload, outcome: Outcome, seed: int,
               seconds: float, reps: Optional[int], started: float) -> None:
    warm, world = make_ready(workload, outcome)
    own_setup = time.perf_counter() - started
    timed = _timed_reps(workload, outcome, seconds, reps, world)
    reference = execute(workload, prepare(workload, "reference"))
    finish(workload, reference, outcome)

    outcome.checks["reps_identical"] = _identical(warm + timed)
    outcome.checks["ops_succeeded"] = outcome.failed == 0
    outcome.checks.update(workload.cross_check(timed[0].rep, reference.rep))
    outcome.checks["faults_none"] = all(
        run.counters["faults.injected"] == 0 for run in timed + [reference])
    outcome.checks["untraced_imports_no_trace"] = \
        "bench_e2e.trace" not in sys.modules

    setups = [own_setup]
    if not workload.quick:
        setups += _fresh_setups(workload.name, seed)
    walls = [run.wall_s for run in timed]
    rep = timed[0].rep
    metrics = outcome.metrics
    metrics["setup_s"] = median(setups)
    metrics["host_ops_per_s"] = rep.ops / undisturbed_rep_s(timed)
    metrics["host_peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["sim_ops_per_s"] = _sim_ops_per_s(rep)
    _latency_metrics(rep, outcome)
    base = _sim_ops_per_s(reference.rep)
    metrics["sim_speedup_x"] = metrics["sim_ops_per_s"] / base if base else 0.0
    cpu_over_wall = sum(run.cpu_s for run in timed) / sum(walls)
    outcome.notes += [
        f"timed reps: {len(timed)}; wall s fast quartile "
        f"{undisturbed_rep_s(timed):.3f} min {min(walls):.3f} median "
        f"{median(walls):.3f} max {max(walls):.3f}; rep spread "
        f"{100 * (max(walls) - min(walls)) / median(walls):.1f} %",
        f"cpu/wall over the timed reps: {cpu_over_wall:.3f}"
        + (" (below 0.9: this run was disturbed)"
           if cpu_over_wall < 0.9 else ""),
        *(f"host s of {name}: fast quartile " + format(fast_quartile(
            [run.rep.host_parts[name] for run in timed]), ".4f")
          for name in rep.host_parts),
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}",
        f"sim_speedup_x base: reference {base:.1f} ops/s "
        f"({workload.reference})",
        f"ops_failed_pct: {100.0 * outcome.failed / outcome.attempted:.4f} "
        f"% ({outcome.failed} of {outcome.attempted})",
    ]


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------


def _traced_rep(workload: Workload, path: str, tracer, trace_mod,
                outcome: Outcome):
    """One span-traced rep; returns (executed, spans, summary)."""
    world = prepare(workload, path)
    tracer.reset(lambda: world.sim.now)
    rep_root = tracer.wrap_function("bench", "rep", workload.run)
    tracer.active = True
    try:
        executed = execute(workload, world, tracer.op_span, run=rep_root)
    finally:
        tracer.finalise()
    spans = tracer.spans
    problems = trace_mod.check_conservation(spans)
    outcome.checks[f"spans_conserve.{path}"] = not problems
    outcome.notes += [f"conservation ({path}): {p}" for p in problems[:5]]
    finish(workload, executed, outcome)
    return executed, spans, trace_mod.summarise(spans)


def _traced_run(workload: Workload, outcome: Outcome, seconds: float,
                reps: Optional[int], trace_out: Optional[str]) -> None:
    from repro.perf import profiling

    from bench_e2e import trace as trace_mod

    probe = trace_mod.SetupProbe()
    trace_mod.install_probe(probe)
    workload.setup()
    world = prepare(workload, "primary")
    build_host_s = probe.build_ns / 1e9
    verifies_before = probe.verify_calls
    first = execute(workload, world)
    finish(workload, first, outcome)
    verify_host_ms = probe.verify_ns / 1e6
    verify_states = probe.verify_states
    if workload.warm_up:
        # The verifier must not be inside any timed rep of this workload.
        outcome.checks["verifier_outside_reps"] = \
            probe.verify_calls == verifies_before
    # The first rep doubles as warm-up; the yardstick reps follow it.
    untraced = _timed_reps(workload, outcome, 0.3 * seconds, reps)
    walls = [run.wall_s for run in untraced]
    wall = median(walls)

    tracer = trace_mod.Tracer()
    mark = trace_mod.install(tracer)
    try:
        traced, spans, summary = _traced_rep(
            workload, "primary", tracer, trace_mod, outcome)
        device_busy = layers.device_busy_pct(tracer.submitted,
                                             traced.rep.sim_ns)
        net = {"frames": tracer.fabric_frames, "bytes": tracer.fabric_bytes,
               "retries": sum(c.retries for c in tracer.connections),
               "dedup_hits": sum(c.dedup_hits for c in tracer.connections),
               "max_inflight": max((c.max_inflight
                                    for c in tracer.connections),
                                   default=0)}
        vm = {"insns": tracer.vm_instructions,
              "helper_calls": tracer.vm_helper_calls}
        if trace_out:
            os.makedirs(trace_out, exist_ok=True)
            trace_mod.write_jsonl(spans, os.path.join(
                trace_out, f"trace_{workload.name}.jsonl"))
        # Negative self-test: a tampered span must break conservation.
        spans[-1][trace_mod.H_TOTAL] += 1
        outcome.checks["selftest.spans_conserve"] = bool(
            trace_mod.check_conservation(spans))
        spans[-1][trace_mod.H_TOTAL] -= 1
        span_count = len(spans)
        ref_traced, _ref_spans, ref_summary = _traced_rep(
            workload, "reference", tracer, trace_mod, outcome)
    finally:
        trace_mod.uninstall(mark)

    with profiling() as profiler:
        profiled = execute(workload, prepare(workload, "primary"))
    # Read before finish(): draining the world dispatches more events.
    events = profiler.events_dispatched
    heap_depth_avg = profiler.heap_depth_avg()
    instructions_retired = profiler.instructions_retired
    finish(workload, profiled, outcome)
    trace_mod.uninstall()

    outcome.checks["reps_identical"] = _identical(
        [first] + untraced + [traced, profiled])
    outcome.checks["ops_succeeded"] = outcome.failed == 0
    outcome.checks.update(workload.cross_check(first.rep, ref_traced.rep))

    rep = first.rep
    ops = max(1, rep.ops)
    metrics = outcome.metrics
    metrics.update(first.counters)
    metrics.update(workload.layer_metrics(rep, ref_traced.rep,
                                          first.counters))

    names = summary["names"]
    ref_names = ref_summary["names"]
    root_ns = sum(row["host_self_ns"] for layer, row in summary.items()
                  if layer != "names")
    pct_sum = 0.0
    for layer in LAYERS + ("bench",):
        row = summary.get(layer)
        share = 100.0 * row["host_self_ns"] / root_ns if row else 0.0
        pct_sum += share
        if row or layer == "bench":
            metrics[f"{layer}.host_self_pct"] = share
        if row and layer != "bench":
            metrics[f"{layer}.calls_per_op"] = row["calls"] / ops
            metrics[f"{layer}.sim_self_us_per_op"] = \
                row["sim_self_ns"] / 1000 / ops
    outcome.checks["host_self_pct_sums_100"] = abs(pct_sum - 100.0) <= 1.0
    outcome.checks["idle_layers_silent"] = not any(
        layer in summary for layer in workload.idle_layers)

    def name_stat(table, name):
        return table.get(name, [0, 0])

    metrics.update({
        "sim.events": events,
        "sim.events_per_op": events / ops,
        "sim.host_us_per_event": wall * 1e6 / events if events else 0.0,
        "sim.heap_depth_avg": heap_depth_avg,
        "ebpf.verify_host_ms": verify_host_ms,
        "ebpf.verify_states": verify_states,
        "structures.build_host_s": build_host_s,
        "device.sim_busy_pct": device_busy,
        "obs.trace_overhead_x": traced.wall_s / wall,
        "obs.spans": span_count,
        "perf.profiler_overhead_x": profiled.wall_s / wall,
        "bench.rep_spread_pct": 100.0 * (max(walls) - min(walls)) / wall,
        "bench.cpu_over_wall": sum(run.cpu_s for run in untraced)
        / sum(walls),
        "bench.latency_samples": len(rep.latencies),
        "bench.ops_failed_pct": 100.0 * outcome.failed / outcome.attempted,
    })
    vm_runs, vm_ns = name_stat(names, "Vm.run")
    if vm_runs:
        outcome.checks["vm_insns_match_profiler"] = \
            vm["insns"] == instructions_retired
        metrics.update({
            "ebpf.vm_runs": vm_runs,
            "ebpf.vm_insns": vm["insns"],
            "ebpf.vm_insns_per_op": vm["insns"] / ops,
            "ebpf.vm_host_ns_per_insn": vm_ns / max(1, vm["insns"]),
            "ebpf.helper_calls": vm["helper_calls"],
        })
    searches, search_ns = name_stat(ref_names, "search_page")
    if searches:
        metrics["structures.pages_per_lookup"] = \
            searches / max(1, ref_traced.rep.ops)
        metrics["structures.search_host_ns_per_call"] = search_ns / searches
    draws, draw_ns = name_stat(names, "YcsbWorkload.next_operation")
    if draws:
        metrics["workloads.gen_host_us_per_op"] = draw_ns / 1000 / ops
    calls, _call_ns = name_stat(names, "Connection.call")
    if calls:
        wire_ns = sum(stat[1] for name, stat in names.items()
                      if name.startswith("wire."))
        metrics.update({
            "net.rpcs_per_op": calls / ops,
            "net.bytes_per_op": net["bytes"] / ops,
            "net.frames_sent": net["frames"],
            "net.retries": net["retries"],
            "net.dedup_hits": net["dedup_hits"],
            "net.max_inflight": net["max_inflight"],
            "net.wire_host_us_per_frame":
                wire_ns / 1000 / max(1, net["frames"]),
        })
    pushes, push_ns = name_stat(names, "WfqScheduler.push")
    if pushes:
        metrics["qos.wfq_host_ns_per_cmd"] = \
            (push_ns + name_stat(names, "WfqScheduler.pop")[1]) / pushes
    outcome.checks["faults_none"] = metrics["faults.injected"] == 0
    outcome.notes += [
        f"untraced reps: {len(untraced)} (median wall {wall:.3f} s); "
        f"traced rep {traced.wall_s:.3f} s; profiled rep "
        f"{profiled.wall_s:.3f} s",
        f"per-layer host_self_pct sums to {pct_sum:.2f}",
    ]
    if metrics["bench.cpu_over_wall"] < 0.9:
        outcome.notes.append("cpu/wall below 0.9: this run was disturbed")


def fill_absent(metrics: Dict[str, float], trace: bool) -> List[str]:
    """Names the contract wants that this workload has no value for
    (layers it never touches); they are reported as 0."""
    wanted = [m.name for m in (PER_LAYER if trace else END_TO_END)]
    absent = [name for name in wanted if name not in metrics]
    for name in absent:
        metrics[name] = 0.0
    return absent
