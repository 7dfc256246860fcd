"""Tests for the self-profiler, bench-result schema, and regression gate.

Covers the three contracts ``repro.perf`` makes:

* off by default and free when off (the NULL profiler is the process
  default; enabling one never perturbs simulation results);
* honest attribution (self <= cumulative, collapsed stacks account for
  exactly the recorded self time, sites map to the right subsystem);
* a validated ``BENCH_*.json`` schema that the committed baselines obey
  and that ``scripts/check_bench_regression.py`` gates CI with.
"""

import importlib.util
import json
import os
import pathlib
import shutil
import sys

import pytest

from repro.bench import fig3c_latency
from repro.bench.registry import EXPERIMENTS, Experiment
from repro.perf import (
    NULL_PROFILER,
    BenchResult,
    Profiler,
    collapsed_stacks,
    get_default_profiler,
    profiling,
    render_profile,
    set_default_profiler,
    subsystem_totals,
    validate_bench_json,
)
from repro.perf.profiler import _site_from_code
from repro.sim import Simulator

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_DIR = os.path.join(REPO, "benchmarks", "baselines")

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


# -- attribution -----------------------------------------------------------


def test_profiler_collects_engine_and_vm_attribution():
    with profiling() as prof:
        _run_workload()
    subsystems = {key[0] for key in prof.sites}
    assert "engine" in subsystems  # dispatch frames
    assert "vm" in subsystems      # program runs
    assert "kernel" in subsystems  # resumed kernel generators
    assert prof.instructions_retired > 0
    assert prof.programs  # (name, mode) -> [runs, insns, wall]
    assert set(prof.opcodes) <= {"alu", "load", "store", "jmp", "imm",
                                 "call", "exit"}
    assert prof.heap_max >= 1
    assert prof.heap_depth_avg() > 0


@pytest.mark.parametrize("mode", ["block", "interp"])
def test_profiled_vm_run_reports_the_tier_that_ran(mode):
    # A block-mode VM runs its compiled function under the profiler too:
    # its row carries that tier's own wall time, and the per-opcode split
    # (a timer around every instruction) exists for interp VMs only.
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
    (key, (runs, retired, wall_ns)), = prof.programs.items()
    assert (key, runs, retired) == (("summer", mode), 1, instructions)
    assert wall_ns > 0
    calls, self_ns, cum_ns = prof.sites[("vm", "run.summer")]
    assert (calls, cum_ns) == (1, wall_ns)
    if mode == "block":
        assert prof.opcodes == {}
    else:
        assert sum(count for count, _ in prof.opcodes.values()) == \
            instructions
        assert prof.opcodes["call"][0] == 1


def test_self_time_never_exceeds_cumulative():
    with profiling() as prof:
        _run_workload()
    for (subsystem, site), (calls, self_ns, cum_ns) in prof.sites.items():
        assert calls > 0, site
        assert 0 <= self_ns <= cum_ns, (subsystem, site)


def test_collapsed_stacks_account_for_all_self_time():
    with profiling() as prof:
        _run_workload()
    # Every stack's accumulated self-ns is exactly the site self-ns total.
    assert sum(prof.stacks.values()) == \
        sum(stat[1] for stat in prof.sites.values())


def test_subsystem_totals_self_sums_to_total():
    with profiling() as prof:
        _run_workload()
    totals = subsystem_totals(prof)
    assert sum(row["self_ns"] for row in totals.values()) == prof.total_ns
    for row in totals.values():
        assert row["self_ns"] <= row["cum_ns"]


def test_site_subsystem_mapping():
    from repro.ebpf import vm as vm_mod
    from repro.sim import engine as engine_mod

    subsystem, site = _site_from_code(engine_mod.Simulator.step.__code__)
    assert subsystem == "engine"
    assert site.startswith("engine.") and site.endswith("step")
    subsystem, site = _site_from_code(vm_mod.Vm.run.__code__)
    assert subsystem == "vm"
    assert site.startswith("vm.") and site.endswith("run")


def test_every_package_has_a_subsystem_row():
    """A package without a row is billed to ``app`` silently (as
    ``repro.cluster`` and ``repro.qos`` were); every subsystem a row
    names has a slot in the report's display order."""
    import repro
    from repro.perf.profiler import _PACKAGE_SUBSYSTEM
    from repro.perf.report import _SUBSYSTEM_ORDER

    root = pathlib.Path(repro.__file__).parent
    packages = {path.parent.name for path in root.glob("*/__init__.py")}
    assert packages - set(_PACKAGE_SUBSYSTEM) == set()
    assert set(_PACKAGE_SUBSYSTEM.values()) <= set(_SUBSYSTEM_ORDER)

    from repro.cluster import cluster as cluster_mod
    from repro.qos import manager as qos_mod

    assert _site_from_code(
        cluster_mod.StorageCluster.replicate.__code__)[0] == "cluster"
    assert _site_from_code(qos_mod.QosManager.admit.__code__)[0] == "qos"


def test_collapsed_stacks_format():
    with profiling() as prof:
        _run_workload()
    text = collapsed_stacks(prof)
    lines = text.strip().splitlines()
    assert lines
    for line in lines:
        stack, _, self_ns = line.rpartition(" ")
        assert int(self_ns) >= 0
        for frame in stack.split(";"):
            subsystem, _, site = frame.partition(":")
            assert subsystem and site, line
    # Deterministic ordering: sorted by stack string.
    assert lines == sorted(lines)


def test_render_profile_mentions_subsystems():
    with profiling() as prof:
        _run_workload()
    text = render_profile(prof)
    assert "engine" in text
    assert "vm" in text
    assert "events dispatched" in text


# -- BenchResult schema ----------------------------------------------------


def test_bench_result_round_trips_schema():
    result = BenchResult(
        name="demo", title="Demo", mode="smoke",
        wall_rounds_s=[0.5, 0.4, 0.6],
        sim_time_ns=12345,
        throughput={"value": 10.0, "unit": "kiops"},
        metrics={"speedup": 1.5},
    )
    data = json.loads(result.to_json())
    assert validate_bench_json(data) == []
    assert data["rounds"] == 3
    assert data["wall_s"]["min"] == 0.4
    assert data["fingerprint"]["python"]


def test_bench_result_rejects_bad_inputs():
    with pytest.raises(ValueError):
        BenchResult("x", "X", "fast", [0.1])  # bad mode
    with pytest.raises(ValueError):
        BenchResult("x", "X", "full", [])  # no rounds
    with pytest.raises(ValueError):
        BenchResult("x", "X", "full", [0.1],
                    throughput={"value": 1.0})  # missing unit


def test_validate_flags_malformed_documents():
    assert validate_bench_json([]) != []
    assert validate_bench_json({"schema": "other/9"}) != []
    good = json.loads(BenchResult("x", "X", "smoke", [0.1]).to_json())
    assert validate_bench_json(good) == []
    bad = dict(good)
    bad["wall_s"] = {"mean": 0.1}  # missing min/max/per_round
    assert any("wall_s" in p for p in validate_bench_json(bad))
    bad = dict(good)
    bad["throughput"] = {"value": 1.0}
    assert any("throughput" in p for p in validate_bench_json(bad))


def test_committed_baselines_are_valid():
    names = sorted(f for f in os.listdir(BASELINE_DIR)
                   if f.startswith("BENCH_") and f.endswith(".json"))
    assert names == sorted(f"BENCH_{exp.name}.json" for exp in EXPERIMENTS)
    for fname in names:
        with open(os.path.join(BASELINE_DIR, fname)) as fh:
            data = json.load(fh)
        assert validate_bench_json(data) == [], fname
        assert fname == f"BENCH_{data['name']}.json"
        assert data["mode"] == "smoke", fname


# -- regression checker ----------------------------------------------------


def _load_checker():
    path = os.path.join(REPO, "scripts", "check_bench_regression.py")
    spec = importlib.util.spec_from_file_location("check_bench_regression",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_result(directory, name, wall_s, sim_time_ns=1000):
    result = BenchResult(name=name, title=name.title(), mode="smoke",
                         wall_rounds_s=[wall_s],
                         sim_time_ns=sim_time_ns)
    result.write(os.path.join(directory, f"BENCH_{name}.json"))


@pytest.fixture
def checker_dirs(tmp_path):
    base = tmp_path / "baselines"
    fresh = tmp_path / "fresh"
    base.mkdir()
    fresh.mkdir()
    return _load_checker(), str(base), str(fresh)


def test_checker_passes_within_tolerance(checker_dirs, capsys):
    checker, base, fresh = checker_dirs
    _write_result(base, "demo", 1.0)
    _write_result(fresh, "demo", 1.1)
    assert checker.main(["--fresh", fresh, "--baselines", base,
                         "--tolerance", "0.25"]) == 0
    assert "within 25%" in capsys.readouterr().out


def test_checker_fails_on_injected_2x_slowdown(checker_dirs, capsys):
    checker, base, fresh = checker_dirs
    _write_result(base, "demo", 1.0)
    _write_result(fresh, "demo", 2.0)
    assert checker.main(["--fresh", fresh, "--baselines", base,
                         "--tolerance", "0.25"]) == 1
    assert "regression" in capsys.readouterr().err


def test_checker_warns_on_sim_time_drift_strict_fails(checker_dirs, capsys):
    checker, base, fresh = checker_dirs
    _write_result(base, "demo", 1.0, sim_time_ns=1000)
    _write_result(fresh, "demo", 1.0, sim_time_ns=2000)
    assert checker.main(["--fresh", fresh, "--baselines", base]) == 0
    assert "drift" in capsys.readouterr().err
    assert checker.main(["--fresh", fresh, "--baselines", base,
                         "--strict"]) == 1


@pytest.mark.parametrize("name,strict_exit", [("fig1", 1), ("obs", 0)])
def test_checker_metric_value_drift(checker_dirs, capsys, name, strict_exit):
    # One changed metric value in a deterministic row is result drift
    # (fails --strict); in a wall-clock row it is only a warning.
    checker, base, fresh = checker_dirs
    fname = f"BENCH_{name}.json"
    shutil.copy(os.path.join(BASELINE_DIR, fname), base)
    with open(os.path.join(base, fname)) as fh:
        data = json.load(fh)
    key = sorted(data["metrics"])[0]
    data["metrics"][key] += 1
    with open(os.path.join(fresh, fname), "w") as fh:
        json.dump(data, fh)
    assert checker.main(["--fresh", fresh, "--baselines", base]) == 0
    assert f"metric {key}" in capsys.readouterr().err
    assert checker.main(["--fresh", fresh, "--baselines", base,
                         "--strict"]) == strict_exit


def test_checker_rejects_corrupt_baseline(checker_dirs, capsys):
    checker, base, fresh = checker_dirs
    with open(os.path.join(base, "BENCH_demo.json"), "w") as fh:
        fh.write('{"schema": "nope"}')
    _write_result(fresh, "demo", 1.0)
    assert checker.main(["--fresh", fresh, "--baselines", base]) == 2
    assert "schema error" in capsys.readouterr().err


def test_checker_requires_fresh_result_per_baseline(checker_dirs, capsys):
    checker, base, fresh = checker_dirs
    _write_result(base, "demo", 1.0)
    assert checker.main(["--fresh", fresh, "--baselines", base]) == 2
    assert "no fresh result" in capsys.readouterr().err


# -- shared bench harness --------------------------------------------------


def _load_harness():
    sys.path.insert(0, os.path.join(REPO, "benchmarks"))
    try:
        import harness
    finally:
        sys.path.pop(0)
    return harness


def test_run_spec_produces_valid_bench_result():
    harness = _load_harness()
    spec = Experiment(
        name="unit_demo", title="Unit demo",
        func=lambda scale=2: [{"x": scale}],
        quick={"scale": 2}, full={"scale": 4},
        check=lambda rows: None,
        metric_cols=("x",),
    )
    rows, result = harness.run_spec(spec, mode="smoke", rounds=2)
    assert rows == [{"x": 2}]
    data = json.loads(result.to_json())
    assert validate_bench_json(data) == []
    assert data["mode"] == "smoke"
    assert data["rounds"] == 2
    assert data["metrics"]["x_mean"] == 2


def test_run_spec_detects_nondeterminism():
    harness = _load_harness()
    ticker = iter(range(100))

    def flappy():
        return [{"x": next(ticker)}]

    spec = Experiment(name="flappy", title="Flappy", func=flappy,
                      quick={}, full={}, check=lambda rows: None)
    with pytest.raises(AssertionError):
        harness.run_spec(spec, mode="full", rounds=2)
