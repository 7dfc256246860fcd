"""Tests for the self-profiler.

Covers the two contracts ``repro.perf`` makes:

* off by default and free when off (the NULL profiler is the process
  default; enabling one never perturbs simulation results);
* honest attribution of a run made under ``cProfile`` (self time sums to
  the measured wall, the innermost generator is charged, no row is one
  lump, sites map to their package, call counts are exact).
"""

import cProfile
import functools
import json
import os
import pathlib
import pstats
import subprocess
import sys
import time

import pytest

from repro.bench import fig3c_latency
from repro.bench.registry import BY_NAME
from repro.perf import (
    NULL_PROFILER,
    Profiler,
    function_totals,
    get_default_profiler,
    profiling,
    render_profile,
    set_default_profiler,
    subsystem_totals,
)
from repro.perf.report import _site_from_code
from repro.sim import Simulator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOAD = {"depths": (2, 4), "operations": 10}


def _run_workload():
    return fig3c_latency(**WORKLOAD)


# -- default state ---------------------------------------------------------


def test_profiler_disabled_by_default():
    assert get_default_profiler() is NULL_PROFILER
    assert not NULL_PROFILER.enabled


def test_profiling_context_installs_and_restores():
    before = get_default_profiler()
    with profiling() as prof:
        assert prof.enabled
        assert get_default_profiler() is prof
    assert get_default_profiler() is before


def test_set_default_profiler_returns_previous():
    mine = Profiler()
    previous = set_default_profiler(mine)
    try:
        assert get_default_profiler() is mine
    finally:
        set_default_profiler(previous)
    assert get_default_profiler() is previous


# -- no-perturbation contract ----------------------------------------------


def test_profiled_run_results_identical():
    plain = _run_workload()
    with profiling() as prof:
        profiled = _run_workload()
    assert profiled == plain
    assert prof.events_dispatched > 0


def test_profiler_never_touches_simulated_time():
    with profiling():
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(100)
            return sim.now

        assert sim.run_process(proc(sim)) == 100
        assert sim.now == 100


# -- counts (the two hooks) ------------------------------------------------


def test_profiler_collects_engine_and_vm_attribution():
    with profiling() as prof:
        _run_workload()
    assert prof.events_dispatched == sum(prof.events.values()) > 0
    assert prof.instructions_retired > 0
    assert prof.programs  # (name, mode) -> [runs, insns]
    assert prof.heap_max >= 1
    assert prof.heap_depth_avg() > 0


@pytest.mark.parametrize("mode", ["block", "interp"])
def test_profiled_vm_run_reports_the_tier_that_ran(mode):
    # A VM under the profiler runs the tier it was built with, and its
    # row is keyed by that tier.
    from repro.core.hooks import storage_ctx_layout, storage_helpers
    from repro.ebpf import Program, Vm, assemble, verify
    from repro.ebpf.vm import VmEnvironment

    layout = storage_ctx_layout(256, 64)
    helpers = storage_helpers()
    program = Program(assemble("""
            mov   r6, r1
            ldxdw r7, [r6+0]
            mov   r8, 0
            mov   r9, 0
        loop:
            mov   r2, r7
            add   r2, r8
            ldxb  r3, [r2+0]
            add   r9, r3
            add   r8, 1
            jlt   r8, 32, loop
            mov   r1, r9
            call  trace
            stxdw [r6+88], r9
            mov   r0, 0
            exit
        """, helpers.names()), layout, name="summer")
    verify(program, helpers)

    def run():
        ctx = bytearray(layout.size)
        result = Vm(program, VmEnvironment(helpers), mode=mode).run(
            ctx, {"data": bytearray(range(256)), "scratch": bytearray(64)})
        return result, bytes(ctx)

    plain = run()
    with profiling() as prof:
        profiled = run()
    assert profiled == plain
    instructions = plain[0].instructions
    assert instructions == 4 + 32 * 6 + 5
    (key, (runs, retired)), = prof.programs.items()
    assert (key, runs, retired) == (("summer", mode), 1, instructions)


# -- timing (the interpreter's profiler) -----------------------------------


def _timed(func, *args, **kwargs):
    """``(timer, counts, wall_s)`` of one call, the way the CLI makes it."""
    timer = cProfile.Profile(builtins=False)
    with profiling() as counts:
        started = time.perf_counter()
        timer.runcall(func, *args, **kwargs)
        wall_s = time.perf_counter() - started
    return timer, counts, wall_s


@functools.lru_cache(maxsize=None)
def _run_row(name):
    """One ``--quick`` run of a registry row, shared by the tests below."""
    return _timed(BY_NAME[name].run, True)


def test_self_time_never_exceeds_cumulative():
    timer, _counts, _wall = _timed(_run_workload)
    for (subsystem, site), (calls, self_s, cum_s) in \
            function_totals(timer).items():
        assert calls > 0, site
        assert 0 <= self_s <= cum_s + 1e-9, (subsystem, site)


def test_subsystem_totals_self_sums_to_total():
    timer, _counts, _wall = _timed(_run_workload)
    functions = function_totals(timer)
    totals = subsystem_totals(functions)
    assert sum(row["self_s"] for row in totals.values()) == pytest.approx(
        sum(stat[1] for stat in functions.values()))
    assert sum(row["calls"] for row in totals.values()) == \
        sum(stat[0] for stat in functions.values())
    assert {"sim", "ebpf", "kernel"} <= set(totals)


def test_site_subsystem_mapping():
    # A site's subsystem is the directory under repro/ its file sits in.
    import repro
    from repro import errors as errors_mod
    from repro.cluster import cluster as cluster_mod
    from repro.ebpf import vm as vm_mod
    from repro.qos import manager as qos_mod
    from repro.sim import engine as engine_mod

    subsystem, site = _site_from_code(engine_mod.Simulator.run.__code__)
    assert subsystem == "sim"
    assert site.startswith("engine.") and site.endswith("run")
    subsystem, site = _site_from_code(vm_mod.Vm.run.__code__)
    assert subsystem == "ebpf"
    assert site.startswith("vm.") and site.endswith("run")
    assert _site_from_code(
        cluster_mod.StorageCluster.replicate.__code__)[0] == "cluster"
    assert _site_from_code(qos_mod.QosManager.admit.__code__)[0] == "qos"
    # A module directly under repro/, generated block-tier code, the rest.
    assert _site_from_code(
        errors_mod.VmFault.__init__.__code__)[0] == "repro"
    generated = compile("def _run(state): pass", "<bpf:summer>", "exec")
    assert _site_from_code(generated.co_consts[0]) == \
        ("ebpf", "bpf:summer._run")
    assert _site_from_code(json.dumps.__code__)[0] == "python"
    assert _site_from_code(_timed.__code__)[0] == "python"
    root = pathlib.Path(repro.__file__).parent
    for init in root.glob("*/__init__.py"):
        code = compile("", str(init), "exec")
        assert _site_from_code(code)[0] == init.parent.name


def test_innermost_generator_wins():
    # Code under ``yield from`` is charged to the function that ran, not
    # to the outermost generator of the process the engine resumed.
    def inner(sim):
        for _ in range(20):
            yield sim.timeout(1)
            total = 0
            for index in range(20_000):
                total += index

    def outer(sim):
        yield from inner(sim)

    def run():
        sim = Simulator()
        sim.spawn(outer(sim))
        sim.run()

    timer, counts, _wall = _timed(run)
    assert counts.events["Timeout"] == 20
    sites = {site: stat for (subsystem, site), stat
             in function_totals(timer).items() if subsystem == "python"}
    (inner_stat,) = [stat for site, stat in sites.items()
                     if site.endswith("inner")]
    (outer_stat,) = [stat for site, stat in sites.items()
                     if site.endswith("outer")]
    assert inner_stat[0] == 21  # one resume per timeout, plus the start
    assert inner_stat[1] > 10 * outer_stat[1]
    assert outer_stat[2] >= inner_stat[1]  # cumulative still covers it


def test_cluster_is_not_one_lump():
    # The hand-placed frames billed 71 % of this row to the transport's
    # serve loop; it is the target verifying and compiling each
    # pushed-down program.
    timer, _counts, _wall = _run_row("cluster")
    functions = function_totals(timer)
    total = sum(stat[1] for stat in functions.values())
    for (subsystem, site), (_calls, self_s, _cum) in functions.items():
        if subsystem == "net":
            assert self_s < 0.15 * total, site
    totals = subsystem_totals(functions)
    assert max(totals, key=lambda s: totals[s]["self_s"]) == "ebpf"
    assert totals["net"]["self_s"] < 0.15 * total
    (verifier_run,) = [stat for (subsystem, site), stat in functions.items()
                       if subsystem == "ebpf"
                       and site in ("verifier.Verifier.run", "verifier.run")]
    assert verifier_run[2] > verifier_run[1] > 0


def test_work_outside_the_event_loop_is_seen():
    # `stability` never starts a Simulator: nothing for the hooks to
    # count, and all of its seconds attributed.
    timer, counts, wall_s = _run_row("stability")
    assert counts.events_dispatched == 0
    timed_s = sum(stat[1] for stat in function_totals(timer).values())
    assert timed_s > 0.95 * wall_s > 0


@pytest.mark.parametrize(
    "name", ["table1", "cluster", "pushdown", "compaction", "stability"])
def test_self_time_accounts_for_the_measured_wall(name):
    timer, _counts, wall_s = _run_row(name)
    functions = function_totals(timer)
    timed_s = sum(stat[1] for stat in functions.values())
    assert timed_s >= 0.95 * wall_s
    hottest = max(functions, key=lambda key: functions[key][1])
    assert functions[hottest][1] <= 0.45 * timed_s, hottest


_CALLS_SCRIPT = """
import cProfile, json
from repro.bench.registry import BY_NAME
from repro.perf import function_totals, subsystem_totals
timer = cProfile.Profile(builtins=False)
timer.runcall(BY_NAME["fig3c"].run, True)
print(json.dumps({name: row["calls"]
                  for name, row
                  in subsystem_totals(function_totals(timer)).items()
                  if name not in ("python", "repro")}, sort_keys=True))
"""


def test_calls_are_exact_across_interpreters():
    # The `calls` column is work, not time: two fresh interpreters agree.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    first, second = (
        subprocess.run([sys.executable, "-c", _CALLS_SCRIPT], env=env,
                       capture_output=True, text=True, check=True).stdout
        for _ in range(2))
    assert first == second
    calls = json.loads(first)
    assert calls["sim"] > 0 and calls["ebpf"] > 0


def test_dump_is_a_pstats_file(tmp_path):
    timer, _counts, _wall = _timed(_run_workload)
    target = tmp_path / "run.pstats"
    timer.dump_stats(str(target))
    stats = pstats.Stats(str(target))
    assert stats.total_calls > 0
    assert any(func[2] == "run" and func[0].endswith("engine.py")
               for func in stats.stats)


def test_render_profile_mentions_subsystems():
    timer, counts, wall_s = _timed(_run_workload)
    text = render_profile(counts, timer, top=5, wall_s=wall_s)
    assert "sim" in text
    assert "ebpf" in text
    assert "events dispatched" in text
    assert "measured around the run" in text
    assert "Hottest functions (top 5 of" in text
