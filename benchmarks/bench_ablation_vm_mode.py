"""Ablation: eBPF interpreter vs fused blocks (JIT) on the completion path.

The paper notes programs "can be executed either using an interpreter or a
just-in-time (JIT) compiler".  The per-hop BPF cost sits directly on the
device's completion path, so execution mode shifts end-to-end latency by
(insns x cost-delta) per hop.  The ``block`` tier (the simulator's default)
is charged the JIT cost; it also wins simulator wall-clock, which this
bench's harness timing captures.
"""

import sys

import harness

from repro.bench import ablation_vm_mode, format_table

COLUMNS = ["mode", "depth", "mean_latency_us", "speedup_vs_baseline"]

FULL = {"depth": 6, "operations": 200}
SMOKE = {"depth": 3, "operations": 20}


def check_shape(rows):
    by_mode = {row["mode"]: row for row in rows}
    # The compiled tier is never slower, and both tiers beat the baseline.
    assert by_mode["block"]["mean_latency_us"] <= \
        by_mode["interp"]["mean_latency_us"]
    assert by_mode["interp"]["speedup_vs_baseline"] > 1.0


def test_ablation_vm_mode(benchmark):
    rows = benchmark.pedantic(ablation_vm_mode, kwargs=FULL,
                              rounds=1, iterations=1)
    print()
    print(format_table("Ablation — interp vs block", COLUMNS, rows))
    by_mode = {row["mode"]: row for row in rows}
    benchmark.extra_info["block_gain_pct"] = round(
        100 * (1 - by_mode["block"]["mean_latency_us"] /
               by_mode["interp"]["mean_latency_us"]), 2)
    # The compiled tier is strictly faster, and both beat the baseline.
    assert by_mode["block"]["mean_latency_us"] < \
        by_mode["interp"]["mean_latency_us"]
    assert by_mode["interp"]["speedup_vs_baseline"] > 1.0
    # But the delta is small relative to device time (< 10 %): the paper's
    # design works even with the interpreter.
    assert by_mode["block"]["mean_latency_us"] > \
        0.90 * by_mode["interp"]["mean_latency_us"]


SPEC = harness.BenchSpec(
    name="ablation_vm_mode",
    title="Ablation — interp vs block",
    func=ablation_vm_mode,
    columns=COLUMNS,
    full=FULL,
    smoke=SMOKE,
    check=check_shape,
    shape_note="block <= interp latency, both beat baseline",
    metric_cols=["mean_latency_us", "speedup_vs_baseline"],
)


def main(argv=None) -> int:
    return harness.bench_main(SPEC, argv)


if __name__ == "__main__":
    sys.exit(main())
