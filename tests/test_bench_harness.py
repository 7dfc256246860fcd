"""Tests for the benchmark harness (small-scale experiment runs)."""

import pytest

from repro.bench import (
    BtreeBench,
    ablation_resubmit_bound,
    ablation_vm_mode,
    extent_stability,
    fig1_latency_breakdown,
    fig3_throughput,
    fig3c_latency,
    fig3d_iouring,
    format_table,
    run_closed_loop,
    table1_breakdown,
)
from repro.bench.runner import choose_fanout
from repro.sim import Simulator


# ---------------------------------------------------------------------------
# Table rendering
# ---------------------------------------------------------------------------


def test_format_table_renders_all_rows():
    rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 1234.5}]
    text = format_table("Demo", ["a", "b"], rows)
    assert "Demo" in text
    assert "1,234" in text or "1234" in text
    assert len(text.splitlines()) == 6


def test_format_table_empty_rows():
    text = format_table("Empty", ["x"], [])
    assert "Empty" in text


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def test_choose_fanout_limits_key_count():
    for depth in range(1, 12):
        fanout = choose_fanout(depth)
        assert 2 <= fanout <= 16
        if depth > 1:
            assert fanout ** (depth - 1) + 1 <= 30_000 or fanout == 2


def test_run_closed_loop_counts_ops():
    sim = Simulator()

    def make_worker(index):
        if False:
            yield

        def one_op():
            yield sim.timeout(1000)

        return one_op

    meter, latency = run_closed_loop(sim, 2, 10_000, make_worker)
    assert meter.completed == 20
    assert latency.mean == 1000


def test_btree_bench_builds_requested_depth():
    for depth in (1, 2, 4):
        bench = BtreeBench(depth)
        assert bench.tree.depth == depth


def test_btree_bench_systems_agree_on_work():
    bench = BtreeBench(3, seed=5)
    latency_baseline = bench.mean_latency("baseline", operations=20)
    bench2 = BtreeBench(3, seed=5)
    latency_nvme = bench2.mean_latency("nvme", operations=20)
    assert latency_nvme < latency_baseline


def test_btree_bench_rejects_unknown_system():
    bench = BtreeBench(2)
    with pytest.raises(Exception):
        bench.throughput("warp-drive", 1, 1_000_000)


# ---------------------------------------------------------------------------
# Experiments (miniature scale, shape checks only)
# ---------------------------------------------------------------------------


def test_fig1_shape():
    rows = fig1_latency_breakdown(reads=30)
    pcts = [row["software_pct"] for row in rows]
    assert pcts == sorted(pcts)
    assert pcts[-1] > 40


def test_table1_matches_cost_model():
    rows = table1_breakdown(reads=30)
    by_layer = {row["layer"]: row for row in rows}
    assert by_layer["ext4"]["measured_ns"] == 2006
    assert by_layer["total"]["measured_ns"] == 6272


def test_fig3_throughput_nvme_wins():
    rows = fig3_throughput("nvme", depths=(4,), threads=(1, 6),
                           duration_ns=2_000_000)
    assert all(row["speedup"] > 1.1 for row in rows)


def test_fig3_throughput_syscall_modest():
    rows = fig3_throughput("syscall", depths=(4,), threads=(1,),
                           duration_ns=2_000_000)
    assert 1.0 < rows[0]["speedup"] < 1.35


def test_fig3_throughput_validates_hook():
    with pytest.raises(ValueError):
        fig3_throughput("timewarp")


def test_fig3c_reduction_grows_with_depth():
    rows = fig3c_latency(depths=(2, 6), operations=30)
    assert rows[1]["nvme_reduction_pct"] > rows[0]["nvme_reduction_pct"]


def test_fig3d_speedup_grows_with_batch():
    rows = fig3d_iouring(depths=(4,), batches=(1, 8),
                         duration_ns=2_000_000)
    assert rows[1]["speedup"] > rows[0]["speedup"]
    assert all(row["speedup"] > 1.0 for row in rows)


def test_extent_stability_counts_changes():
    rows = extent_stability(sim_hours=0.05, ops_per_sec=500,
                            rebuild_overlay=3000, gc_every_rebuilds=3,
                            initial_keys=3000, fanout=32)
    row = rows[0]
    assert row["extent_changes"] > 0
    assert row["invalidations"] == row["unmap_changes"]
    assert row["operations"] == int(0.05 * 3600 * 500)


def test_ablation_resubmit_bound_monotone():
    rows = ablation_resubmit_bound(chain_length=8, bounds=(2, 8),
                                   lookups=5)
    assert rows[0]["kills_per_lookup"] > rows[1]["kills_per_lookup"]
    assert rows[0]["mean_latency_us"] > rows[1]["mean_latency_us"]


def test_ablation_vm_mode_block_faster():
    rows = ablation_vm_mode(depth=3, operations=20)
    assert [row["mode"] for row in rows] == ["interp", "block"]
    interp, block = (row["mean_latency_us"] for row in rows)
    # Faster by the cost model's per-instruction gap only: the device
    # and kernel layers dominate a hop, so the win stays under 10 %.
    assert 0.90 * interp < block < interp


def test_ablation_app_cache_monotone():
    from repro.bench import ablation_app_cache

    rows = ablation_app_cache(depth=4, cached_levels=(0, 2), operations=20)
    assert rows[0]["mean_latency_us"] > rows[1]["mean_latency_us"]
    assert rows[0]["device_reads_per_lookup"] == 4
    assert rows[1]["device_reads_per_lookup"] == 2


def test_ablation_app_cache_skips_full_depth():
    from repro.bench import ablation_app_cache

    rows = ablation_app_cache(depth=3, cached_levels=(0, 5), operations=5)
    assert len(rows) == 1  # cached_levels >= depth dropped


def test_interference_accounts_chains():
    from repro.bench import interference

    rows = interference(chain_depth=8, plain_threads=2, chain_threads=6,
                        duration_ns=3_000_000)
    alone, loaded = rows
    assert alone["chained_resubmissions"] == 0
    assert loaded["chained_resubmissions"] > 0
    assert loaded["chain_processes_accounted"] == 6
    assert loaded["plain_kreads_per_s"] <= alone["plain_kreads_per_s"]
