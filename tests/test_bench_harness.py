"""Tests for the benchmark harness (small-scale experiment runs)."""

import tracemalloc

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
from repro.bench.runner import (NVM2_BENCH, _tree_image, choose_fanout,
                                load_btree, mean_latency)
from repro.core import Hook
from repro.errors import InvalidArgument
from repro.kernel import Kernel, KernelConfig
from repro.sim import Simulator
from repro.structures import BTree, FsBackend
from repro.structures.pages import PAGE_SIZE


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

    def ticking(op_ns, batch=None):
        def make_worker(index):
            if False:
                yield

            def one_op():
                yield sim.timeout(op_ns)
                return batch

            return one_op

        return make_worker

    (fast, fast_latency), (slow, slow_latency), (batched, _latency) = \
        run_closed_loop(sim, 10_000, (2, ticking(1000)), (1, ticking(2500)),
                        (1, ticking(5000, batch=4)))
    assert fast.completed == 20
    assert fast_latency.mean == 1000
    assert slow.completed == 4
    assert slow_latency.mean == 2500
    # An op returning n (an io_uring batch) completes n operations.
    assert batched.completed == 8
    with pytest.raises(InvalidArgument):
        run_closed_loop(sim, 10_000, (2, ticking(1000)), (0, ticking(1000)))


@pytest.mark.parametrize("depth", [1, 2, 3, 5])
def test_load_btree_leaves_the_state_of_a_page_by_page_build(depth):
    """The cached-image blit must be indistinguishable, to everything
    below it, from serialising the tree page by page through the FS."""
    blit, paged = (Kernel(Simulator(), NVM2_BENCH, KernelConfig(seed=3))
                   for _ in range(2))
    tree = load_btree(blit.fs, "/index", depth)
    assert tree.depth == depth
    fanout = choose_fanout(depth)
    items = [(key * 3 + 1, key)
             for key in range(BTree.keys_for_depth(depth, fanout))]
    BTree.build(FsBackend(paged.fs, paged.fs.create("/index")), items,
                fanout=fanout)
    ours, theirs = blit.fs.lookup("/index"), paged.fs.lookup("/index")
    assert ours.size == theirs.size
    assert blit.fs.read_sync(ours, 0, ours.size) == \
        paged.fs.read_sync(theirs, 0, theirs.size)
    assert blit.fs.media.image() == paged.fs.media.image()
    assert ours.extents.extents() == theirs.extents.extents()


def test_load_btree_shares_the_cached_image():
    """The device holds the tree as views of the cached image, one run
    per extent of the file: a second world's load copies none of it."""
    first, second = (Kernel(Simulator(), NVM2_BENCH, KernelConfig(seed=3))
                     for _ in range(2))
    load_btree(first.fs, "/index", 12)  # fills the image cache
    image = _tree_image(12, choose_fanout(12))
    budget = len(image) // 10
    tracemalloc.start()
    try:
        load_btree(second.fs, "/index", 12)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget
    inode = second.fs.lookup("/index")
    assert len(second.fs.media._runs) <= len(inode.extents) + 4
    for page in range(0, len(image), PAGE_SIZE):
        assert second.fs.read_sync(inode, page, PAGE_SIZE) == \
            image[page:page + PAGE_SIZE]


def test_load_btree_rejects_a_depth_it_cannot_build():
    kernel = Kernel(Simulator(), NVM2_BENCH, KernelConfig(seed=3))
    with pytest.raises(InvalidArgument):
        load_btree(kernel.fs, "/index", 0)


def _chain_ops(max_retries, operations=12, churn=False):
    """One NVMe-hook chain client alone on a depth-3 bench; with
    ``churn``, a block past the tree is punched and rewritten 20 us in,
    which invalidates the extent snapshot taken at install."""
    bench = BtreeBench(3, seed=5)
    fs = bench.kernel.fs
    inode = fs.lookup("/index")
    appendix = (inode.size + PAGE_SIZE - 1) // PAGE_SIZE * PAGE_SIZE
    fs.write_sync(inode, appendix, bytes(PAGE_SIZE))
    if churn:
        def injector():
            yield bench.sim.timeout(20_000)
            fs.punch_range(inode, appendix, PAGE_SIZE)
            fs.write_sync(inode, appendix, bytes(PAGE_SIZE))

        bench.sim.spawn(injector(), name="churn")
    mean_latency(bench.kernel,
                 bench.chain_worker(Hook.NVME, max_retries=max_retries),
                 operations)
    return bench


def test_robust_chain_worker_is_the_plain_one_on_a_quiet_machine():
    plain, robust = _chain_ops(None), _chain_ops(8)
    assert plain.bpf.engine.chains_started == 12
    assert robust.bpf.engine.chains_started == 12
    assert robust.sim.now == plain.sim.now
    # The install ioctl is the one snapshot either of them takes.
    assert robust.bpf.cache.refreshes == plain.bpf.cache.refreshes == 1


def test_robust_chain_worker_survives_an_invalidated_snapshot():
    plain, robust = _chain_ops(None, churn=True), _chain_ops(8, churn=True)
    # Plain read_chain has no recovery: once the snapshot is stale every
    # chain comes back EEXTENT and nobody re-runs the ioctl.
    assert plain.bpf.cache.refreshes == 1
    assert plain.bpf.engine.extent_aborts >= 10
    # The robust worker refreshes and keeps completing lookups.
    aborts = robust.bpf.engine.extent_aborts
    assert aborts >= 1
    assert robust.bpf.cache.refreshes == 1 + aborts
    assert robust.bpf.engine.chains_started == 12 + aborts


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
