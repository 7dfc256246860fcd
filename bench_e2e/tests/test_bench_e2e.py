"""Self-tests of the repo benchmark.

Run with ``python -m pytest bench_e2e/tests -q`` (about a minute: the
quick suite runs twice, on seeds 1 and 2).  Not collected by tier-1,
whose ``testpaths`` is ``tests``.
"""

import io
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from bench_e2e import compare, metrics  # noqa: E402
from bench_e2e.workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quick_suite(tmp_path_factory, seed):
    path = tmp_path_factory.mktemp(f"seed{seed}") / "suite.json"
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--seed", str(seed),
         "--json", str(path)], capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    with open(path, encoding="utf-8") as handle:
        return json.load(handle), done.stdout


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    return quick_suite(tmp_path_factory, 1)


# -- BENCHMARK.json -------------------------------------------------------


def test_contract_schema(contract):
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert 1 <= len(contract["command"]) <= 32
    assert all(isinstance(part, str) and len(part) <= 200
               and not part.startswith("/") and ".." not in part.split("/")
               for part in contract["command"])
    assert 1 <= len(contract["paths"]) <= 16
    assert all(PATH.match(path) for path in contract["paths"])
    assert contract["paths"] == ["bench_e2e"]
    assert isinstance(contract["run_seconds"], int)
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for group in ("workloads", "end_to_end", "per_layer"):
        names = [entry["name"] for entry in contract[group]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names), group
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in contract["end_to_end"])}]


def test_contract_matches_the_tables(contract):
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in contract["end_to_end"]] == \
        [(m.name, m.unit, m.better, m.bound) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"])
            for m in contract["per_layer"]] == \
        [(m.name, m.unit, m.better) for m in metrics.PER_LAYER]
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == \
        [(name, cls.why) for name, cls in WORKLOADS.items()]
    assert list(WORKLOADS) == ["btree_chain", "plain_rw", "cluster_ycsb",
                               "tenants_qos", "lsm_compaction",
                               "verify_install"]


# -- the command ----------------------------------------------------------


def test_every_workload_reports_every_metric(suite, contract):
    results, _stdout = suite
    assert results["quick"] is True
    for name in WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = results["workloads"][name][f"trace{trace}"]
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True, (name, trace)
            assert result["attempted"] >= 1 and result["failed"] == 0
            wanted = {m["name"]: m["unit"] for m in contract[group]}
            assert {metric: value["unit"] for metric, value
                    in result["metrics"].items()} == wanted, (name, trace)
        for metric, value in \
                results["workloads"][name]["trace0"]["metrics"].items():
            assert value["value"] > 0, (name, metric)


def test_zero_predictions_hold(suite):
    results, _stdout = suite

    def layer(name):
        return {metric: value["value"] for metric, value in
                results["workloads"][name]["trace1"]["metrics"].items()}

    plain = layer("plain_rw")
    assert plain["ebpf.vm_runs"] == 0 and plain["ebpf.vm_insns"] == 0
    assert plain["core.chains_started"] == 0
    assert plain["kernel.journal_txns"] > 0 and plain["kernel.fsyncs"] > 0
    for name in WORKLOADS:
        values = layer(name)
        assert values["faults.injected"] == 0, name
        assert values["bench.ops_failed_pct"] == 0, name
        qos = [v for metric, v in values.items() if metric.startswith("qos.")]
        if name == "tenants_qos":
            assert values["qos.chain_throttles"] > 0
            assert values["qos.victim_p99_x_alone"] > 0
        else:
            assert not any(qos), name
        if name != "cluster_ycsb":
            assert values["net.frames_sent"] == 0, name
            assert not any(v for metric, v in values.items()
                           if metric.startswith("cluster.")), name
        shares = sum(v for metric, v in values.items()
                     if metric.endswith(".host_self_pct"))
        assert abs(shares - 100.0) <= 1.0, (name, shares)
    btree = layer("btree_chain")
    assert btree["kernel.journal_txns"] == 0
    assert btree["ebpf.vm_runs"] > 0 and btree["obs.trace_overhead_x"] > 0


def test_checks_run_and_untraced_reps_never_load_the_tracer(suite):
    _results, stdout = suite
    for check in ("reps_identical", "untraced_imports_no_trace",
                  "spans_conserve.primary", "selftest.spans_conserve",
                  "selftest.lookup_value", "selftest.readback",
                  "selftest.acked_readback", "selftest.merge_output",
                  "user_offloaded_byte_identical", "idle_layers_silent",
                  "host_self_pct_sums_100", "verifier_outside_reps"):
        assert check in stdout, check
    assert "FAILED" not in stdout
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path[:0] = sys.argv[1:3]\n"
         "import bench_e2e.harness, bench_e2e.workloads\n"
         "assert 'bench_e2e.trace' not in sys.modules",
         os.path.join(ROOT, "src"), ROOT], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_suite_also_passes_on_seed_2(tmp_path_factory):
    results, _stdout = quick_suite(tmp_path_factory, 2)
    assert all(result["correct"]
               for workload in results["workloads"].values()
               for result in workload.values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "plain_rw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout == ""


# -- the checkers' negative tests ----------------------------------------


def test_every_checker_rejects_a_wrong_value():
    for name, cls in WORKLOADS.items():
        for check, caught in cls(1, True).self_test().items():
            assert caught, (name, check)


def test_span_self_times_conserve_and_tampering_is_caught():
    from bench_e2e import trace

    tracer = trace.Tracer()
    clock = [0]
    tracer.reset(lambda: clock[0])

    def inner():
        clock[0] += 5
        yield "parked"
        clock[0] += 7
        return "done"

    leaf = tracer.wrap_function("device", "leaf", lambda: None)

    def outer():
        leaf()
        result = yield from tracer.wrap_generator("kernel", "inner", inner)()
        clock[0] += 1
        return result

    tracer.active = True
    root = tracer.wrap_function("bench", "rep", lambda: list(
        tracer.op_span(outer())))
    assert root() == ["parked"]
    tracer.finalise()
    assert trace.check_conservation(tracer.spans) == []
    by_name = {span[trace.NAME]: span for span in tracer.spans}
    assert trace.sim_self(by_name["inner"]) == 12
    assert trace.sim_self(by_name["op"]) == 1
    by_name["inner"][trace.H_TOTAL] += 1
    assert trace.check_conservation(tracer.spans)
    by_name["inner"][trace.H_TOTAL] -= 1
    by_name["inner"][trace.S_END] += 3
    assert trace.check_conservation(tracer.spans)


# -- compare.py -----------------------------------------------------------


def _suite_result(**overrides):
    values = {"setup_s": 1.0, "host_ops_per_s": 1000.0,
              "host_peak_rss_mb": 50.0, "sim_ops_per_s": 5000.0,
              "sim_p50_us": 10.0, "sim_p99_us": 20.0, "sim_speedup_x": 2.0}
    failed = overrides.pop("failed", 0)
    values.update(overrides)
    units = metrics.metric_units()
    return {"schema": "bench-e2e/1", "seed": 1, "quick": False,
            "workloads": {"w": {"trace0": {
                "correct": failed == 0, "attempted": 100, "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]}
                            for name, value in values.items()}}}}}


def test_compare_applies_each_bound_per_pair():
    parent = _suite_result()
    out = io.StringIO()
    assert compare.compare(parent, _suite_result(), out=out) == 0
    bounds = {m.name: m.bound for m in metrics.END_TO_END}
    slower = 1000.0 * (1 - bounds["host_ops_per_s"] - 0.01)
    assert compare.compare(parent, _suite_result(host_ops_per_s=slower),
                           out=out) == 1
    within = 1000.0 * (1 - bounds["host_ops_per_s"] + 0.01)
    assert compare.compare(parent, _suite_result(host_ops_per_s=within),
                           out=out) == 0
    # lower-is-better metrics regress upwards, and improvements never do
    worse_tail = 20.0 * (1 + bounds["sim_p99_us"] + 0.01)
    assert compare.compare(parent, _suite_result(sim_p99_us=worse_tail),
                           out=out) == 1
    assert compare.compare(parent, _suite_result(sim_p99_us=5.0,
                                                 host_ops_per_s=9000.0),
                           out=out) == 0
    assert "REGRESSION" in out.getvalue()


def test_compare_rejects_any_rise_in_failed_ops_and_inexact_sim():
    parent = _suite_result()
    out = io.StringIO()
    assert compare.compare(parent, _suite_result(failed=1), out=out) == 1
    nudged = _suite_result(sim_p50_us=10.0001)
    assert compare.compare(parent, nudged, out=out) == 0
    assert compare.compare(parent, nudged, exact=True, out=out) == 1
