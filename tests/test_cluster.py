"""repro.cluster: ring placement, replication, crash failover, rejoin.

Covers the consistent-hash ring (determinism, balance, validation), the
durable record codec, ack-after-replica replication (zero replica lag
in steady state), the headline robustness guarantee — killing one of N
targets mid-workload loses **zero acknowledged writes** and serves
**zero stale reads** across the failover — plus journal-replay rejoin
with catch-up, chain pushdown surviving promotion and reinstalling on
the rejoined target, whole-cluster determinism, and a set-up that
holds the index image and the zero fill once per cluster.
"""

import tracemalloc
from collections import Counter

import pytest

from repro.bench.runner import NVM2_BENCH, choose_fanout
from repro.cluster import (
    ClusterClient,
    DATA_PATH,
    HashRing,
    RECORD_SIZE,
    StorageCluster,
    decode_record,
    encode_record,
    stable_hash,
)
from repro.core.library import index_traversal_program
from repro.errors import Errno, InvalidArgument, RemoteError
from repro.faults import FaultSpec
from repro.sim import Simulator
from repro.structures import BTree, FsBackend
from simutil import written_image


def build_cluster(shards=3, seed=11, capacity_keys=64, **kwargs):
    """A small cluster plus one routed client; returns the parts."""
    sim = Simulator()
    cluster = StorageCluster(sim, shards, model=NVM2_BENCH, seed=seed,
                             capacity_keys=capacity_keys, **kwargs)
    # Short client timeouts so crash detection stays cheap in sim time.
    client = ClusterClient(cluster, timeout_ns=200_000, max_retries=2)
    return sim, cluster, client


def run_puts(sim, client, items):
    """Drive ``client.put`` for every (key, value); returns versions."""
    def workload():
        versions = []
        for key, value in items:
            versions.append((yield from client.put(key, value)))
        return versions
    return sim.run_process(workload())


def run_gets(sim, client, keys):
    """Drive ``client.get`` for every key; returns (value, version, found)."""
    def workload():
        replies = []
        for key in keys:
            replies.append((yield from client.get(key)))
        return replies
    return sim.run_process(workload())


def keys_by_primary(cluster, target_id, universe):
    """Keys in ``universe`` whose shard's *current* primary is target_id."""
    return [key for key in universe
            if cluster.primary[cluster.ring.shard_for(key)] == target_id]


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------


def test_ring_is_deterministic_across_instances():
    first = HashRing(range(8))
    second = HashRing(range(8))
    placement = [first.shard_for(key) for key in range(1000)]
    assert placement == [second.shard_for(key) for key in range(1000)]
    # BLAKE2b, not the salted builtin hash(): the exact value is part
    # of the contract — a new process (PYTHONHASHSEED and all) must
    # place every key identically or replication targets diverge.
    assert stable_hash(b"key-0") == 0x8655DB8F4C7D5137
    assert stable_hash(b"a") != stable_hash(b"b")


def test_ring_balances_load_within_2x():
    ring = HashRing(range(8), vnodes=64)
    counts = Counter(ring.shard_for(key) for key in range(10_000))
    assert set(counts) == set(range(8))
    mean = 10_000 / 8
    assert max(counts.values()) < 2 * mean
    assert min(counts.values()) > 0


def test_ring_placement_mostly_stable_when_growing():
    # Consistent hashing's point: adding a shard moves ~1/N of keys,
    # not almost all of them (key % N would reshuffle ~everything).
    before = HashRing(range(4))
    after = HashRing(range(5))
    moved = sum(1 for key in range(2000)
                if before.shard_for(key) != after.shard_for(key))
    assert 0 < moved < 2000 * 0.45


def test_ring_validation():
    with pytest.raises(InvalidArgument, match="at least one shard"):
        HashRing([])
    with pytest.raises(InvalidArgument, match="vnodes"):
        HashRing(range(2), vnodes=0)


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def test_record_codec_roundtrip():
    record = encode_record(7, 3, 123456)
    assert len(record) == RECORD_SIZE
    assert decode_record(record) == (7, 3, 123456)


def test_record_codec_rejects_junk():
    assert decode_record(bytes(RECORD_SIZE)) is None       # empty slot
    assert decode_record(b"\x01") is None                  # short
    assert decode_record(encode_record(7, 0, 9)) is None   # version 0
    garbled = b"\xff" + encode_record(7, 3, 9)[1:]
    assert decode_record(garbled) is None                  # bad magic


# ---------------------------------------------------------------------------
# Replication in steady state
# ---------------------------------------------------------------------------


def test_put_get_and_versions_are_monotonic():
    sim, cluster, client = build_cluster(shards=3)
    keys = list(range(12))
    first = run_puts(sim, client, [(key, key * 10) for key in keys])
    assert first == [1] * len(keys)
    second = run_puts(sim, client, [(key, key * 10 + 1) for key in keys])
    assert second == [2] * len(keys)
    for value, version, found in run_gets(sim, client, keys):
        assert found and version == 2
    assert [value for value, _, _ in run_gets(sim, client, keys)] == \
        [key * 10 + 1 for key in keys]
    assert client.stale_reads == 0


def test_ack_after_replica_means_zero_lag():
    sim, cluster, client = build_cluster(shards=4)
    run_puts(sim, client, [(key, key) for key in range(32)])
    for shard in range(cluster.num_shards):
        assert cluster.replica_lag(shard) == 0
    assert sum(cluster.shard_puts.values()) == 32
    # Every acked record really is on the replica (same version table).
    for key in range(32):
        shard = cluster.ring.shard_for(key)
        primary = cluster.targets[cluster.primary[shard]]
        replica = cluster.targets[cluster.replica[shard]]
        assert replica.versions.get(key) == primary.versions.get(key) == 1


def test_single_shard_cluster_has_no_replica():
    sim, cluster, client = build_cluster(shards=1)
    assert cluster.replica[0] is None
    assert run_puts(sim, client, [(3, 30), (3, 31)]) == [1, 2]
    (value, version, found), = run_gets(sim, client, [3])
    assert (value, version, found) == (31, 2, True)


def test_preload_lands_on_primary_and_replica():
    sim, cluster, client = build_cluster(shards=3)
    cluster.preload([(key, key * 7) for key in range(16)])
    for value, version, found in run_gets(sim, client, range(16)):
        assert found and version == 1
    for key in range(16):
        shard = cluster.ring.shard_for(key)
        replica = cluster.targets[cluster.replica[shard]]
        assert replica.versions[key] == 1


def test_key_outside_capacity_is_typed_refusal():
    sim, cluster, client = build_cluster(shards=2, capacity_keys=8)

    def workload():
        yield from client.put(8, 1)

    with pytest.raises(RemoteError) as excinfo:
        sim.run_process(workload())
    assert excinfo.value.remote_errno is Errno.EINVAL
    # The refusal did not take the target down.
    assert run_puts(sim, client, [(7, 70)]) == [1]


# ---------------------------------------------------------------------------
# Crash, failover, read-your-writes
# ---------------------------------------------------------------------------


def test_crash_failover_loses_no_acked_write():
    sim, cluster, client = build_cluster(shards=3)
    keys = list(range(24))
    run_puts(sim, client, [(key, key * 100) for key in keys])
    run_puts(sim, client, [(key, key * 100 + 1) for key in keys[:8]])
    acked = dict(client.acked)

    cluster.crash_target(0)
    # The crashed target's shard promotes on first detected timeout;
    # every acked write is still served at >= its acked version.
    for key, (value, version, found) in zip(keys, run_gets(sim, client,
                                                           keys)):
        assert found, key
        want_version, want_value = acked[key]
        assert version >= want_version
        assert value == want_value
    assert client.stale_reads == 0
    assert cluster.failovers == 1
    assert client.failovers_observed >= 1
    assert client.availability_gap_ns is not None
    assert client.availability_gap_ns > 0
    # A dead machine answers nothing — not even refusals.
    assert client.remotes[0].connection.dropped_requests > 0
    # Shard 0's new primary is the old replica; the dead target backs it.
    assert cluster.primary[0] != 0
    assert cluster.replica[0] == 0


def test_writes_continue_after_failover_with_version_continuity():
    sim, cluster, client = build_cluster(shards=3)
    victim_keys = keys_by_primary(cluster, 0, range(32))
    assert victim_keys, "need at least one key on the victim's shard"
    run_puts(sim, client, [(key, 1) for key in victim_keys])
    cluster.crash_target(0)
    # Re-PUT through the promoted primary: versions continue the acked
    # sequence (the replica had every acked stamp), reads stay fresh.
    versions = run_puts(sim, client, [(key, 2) for key in victim_keys])
    assert versions == [2] * len(victim_keys)
    for value, version, found in run_gets(sim, client, victim_keys):
        assert (value, version, found) == (2, 2, True)
    assert client.stale_reads == 0
    # The promoted shard now has no live replica, so its lag grows.
    assert cluster.replica_lag(0) >= len(victim_keys)


def test_report_timeout_on_live_target_is_spurious():
    sim, cluster, client = build_cluster(shards=3)
    assert cluster.report_timeout(1) == []
    assert cluster.failovers == 0
    assert cluster.primary == {0: 0, 1: 1, 2: 2}


def test_fault_plan_cuts_power_mid_workload():
    spec = FaultSpec(seed=11, target_crash_after_rpcs=10)
    sim, cluster, client = build_cluster(shards=3, fault_spec=spec,
                                         crash_victim=0)
    keys = list(range(24))
    run_puts(sim, client, [(key, key) for key in keys])
    assert cluster.targets[0].crashed
    assert cluster.crash_ts is not None
    assert cluster.failovers == 1
    # Every PUT the client saw acked is still readable post-failover.
    for key, (value, version, found) in zip(keys, run_gets(sim, client,
                                                           keys)):
        want_version, want_value = client.acked[key]
        assert found and version >= want_version and value == want_value
    assert client.stale_reads == 0


# ---------------------------------------------------------------------------
# Rejoin
# ---------------------------------------------------------------------------


def test_rejoin_replays_journal_and_catches_up():
    sim, cluster, client = build_cluster(shards=3)
    run_puts(sim, client, [(key, key) for key in range(24)])
    cluster.crash_target(0)
    # Failover, then more writes the dead target never saw.
    run_puts(sim, client, [(key, key + 1) for key in range(24)])

    report = sim.run_process(cluster.rejoin(0))
    assert report.fsck_ok
    assert report.caught_up > 0
    assert cluster.rejoins == 1
    assert not cluster.targets[0].crashed
    # Target 0 now backs every shard it replicates with zero lag...
    for shard, replica in cluster.replica.items():
        if replica == 0:
            assert cluster.replica_lag(shard) == 0
    # ...and its version table matches the promoted primary's for the
    # keys it caught up (including writes it missed while dead).
    for shard, replica in cluster.replica.items():
        if replica != 0:
            continue
        primary = cluster.targets[cluster.primary[shard]]
        for key in primary.versions:
            if cluster.ring.shard_for(key) == shard:
                assert cluster.targets[0].versions.get(key) == \
                    primary.versions[key]
    # Replication to the rejoined replica resumes for new PUTs.
    shard0_keys = [key for key in range(64)
                   if cluster.ring.shard_for(key) == 0][:2]
    before = {key: cluster.targets[0].versions.get(key, 0)
              for key in shard0_keys}
    run_puts(sim, client, [(key, 9) for key in shard0_keys])
    for key in shard0_keys:
        # Caught up, the rejoined replica's stamp equals the primary's,
        # so the fresh PUT replicates as exactly the next version.
        assert cluster.targets[0].versions[key] == before[key] + 1
    assert cluster.replica_lag(0) == 0


def test_rejoin_requires_a_crashed_target():
    sim, cluster, _client = build_cluster(shards=2)
    with pytest.raises(InvalidArgument, match="not crashed"):
        sim.run_process(cluster.rejoin(0))


# ---------------------------------------------------------------------------
# Set-up: one index image and one zero fill per cluster
# ---------------------------------------------------------------------------


def test_build_index_leaves_the_state_of_a_build_per_target():
    """One in-memory image written into every target leaves each target
    as a page-by-page build through its own file system did."""
    fanout = 16
    items = [(key * 3 + 1, key)
             for key in range(BTree.keys_for_depth(4, fanout))]
    shared, paged = (StorageCluster(Simulator(), 4, model=NVM2_BENCH,
                                    seed=11, capacity_keys=64)
                     for _ in range(2))
    root = shared.build_index("/cindex", items, fanout=fanout)
    for ours, theirs in zip(shared.targets, paged.targets):
        fs = theirs.kernel.fs
        tree = BTree.build(FsBackend(fs, fs.create("/cindex")), items,
                           fanout=fanout)
        fs.checkpoint_sync()
        assert tree.meta.root_offset == root
        ours_fs = ours.kernel.fs
        ours_inode, theirs_inode = (ours_fs.lookup("/cindex"),
                                    fs.lookup("/cindex"))
        assert ours_fs.read_sync(ours_inode, 0, ours_inode.size) == \
            fs.read_sync(theirs_inode, 0, theirs_inode.size)
        assert ours_inode.extents.extents() == theirs_inode.extents.extents()
        # Sector 0 is the journal superblock.  It records the sequence
        # number of the last checkpoint, and the page-by-page build
        # opened one transaction per page; the image write opens four.
        ours_super = ours_fs.journal.read_superblock()
        theirs_super = fs.journal.read_superblock()
        assert ours_super.pop("ckpt_seq") < theirs_super.pop("ckpt_seq")
        assert ours_super == theirs_super
        image, reference = written_image(ours_fs.media), written_image(fs.media)
        del image[0], reference[0]
        assert image == reference


def test_cluster_set_up_holds_each_byte_once():
    """A cluster shaped like the ``cluster_ycsb`` benchmark's (4 shards,
    3,520 keys each, a depth-4 fanout-16 index) shares one zero fill and
    one index image among its targets.  A copy per target allocates
    12.7 MB here; one of each, 4.3 MB."""
    items = [(key * 3 + 1, key)
             for key in range(BTree.keys_for_depth(4, 16))]
    tracemalloc.start()
    try:
        cluster = StorageCluster(Simulator(), 4, model=NVM2_BENCH, cores=2,
                                 capacity_keys=3520)
        cluster.build_index("/cindex", items, fanout=16)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


# ---------------------------------------------------------------------------
# Chain pushdown across failover and rejoin
# ---------------------------------------------------------------------------


def test_chains_survive_failover_and_reinstall_on_rejoin():
    sim, cluster, client = build_cluster(shards=3)
    fanout = choose_fanout(2)
    items = [(key * 3 + 1, key) for key in range(40)]
    root = cluster.build_index("/cindex", items, fanout=fanout)
    program = index_traversal_program(fanout=fanout)
    sim.run_process(client.install_chains("/cindex", program))
    assert sorted(client.chain_ids) == [0, 1, 2]

    search_keys = [key for key, _value in items]

    def lookup_all():
        hits = []
        for key in search_keys:
            value, found = yield from client.index_get(key,
                                                       root_offset=root)
            hits.append((key, value, found))
        return hits

    for key, value, found in sim.run_process(lookup_all()):
        assert found and value == (key - 1) // 3

    # Kill a target: pushdown GETs route to the promoted primary, whose
    # chain was installed and re-verified independently at setup.
    cluster.crash_target(0)
    for key, value, found in sim.run_process(lookup_all()):
        assert found and value == (key - 1) // 3

    # The rejoined target's chain state died with its file system; a
    # reinstall re-verifies server-side and serves again directly.
    report = sim.run_process(cluster.rejoin(0))
    assert report.fsck_ok
    chain_id = sim.run_process(client.reinstall_chains(0))

    def direct_get(key):
        return (yield from client.remotes[0].remote_btree_get(
            key, mode="pushdown", chain_id=chain_id, root_offset=root))

    value, found, rpcs = sim.run_process(direct_get(search_keys[0]))
    assert found and value == 0
    assert rpcs == 1


# ---------------------------------------------------------------------------
# Observability and determinism
# ---------------------------------------------------------------------------


def test_cluster_metrics_count_failover_rejoin_and_lag():
    from repro.obs import ObsSession

    with ObsSession() as obs:
        sim, cluster, client = build_cluster(shards=3)
        run_puts(sim, client, [(key, key) for key in range(12)])
        cluster.crash_target(0)
        run_gets(sim, client, range(12))   # detection promotes shard 0
        report = sim.run_process(cluster.rejoin(0))
        assert report.fsck_ok

    registry = obs.registry
    assert registry.get("cluster_failovers_total").value(target=0) == 1
    assert registry.get("cluster_rejoins_total").value() == 1
    # The last replicate on every shard left zero lag (pre-crash) and
    # the gauge tracked it per shard.
    lag = {sample["labels"]["shard"]: sample["value"]
           for sample in registry.get("cluster_replica_lag").samples()}
    assert all(lag.get(str(shard), 0) == 0 for shard in range(3)
               if shard in cluster.shard_puts)


def test_cluster_run_is_deterministic():
    def run():
        sim, cluster, client = build_cluster(shards=3, seed=19)
        run_puts(sim, client, [(key, key) for key in range(20)])
        cluster.crash_target(0)
        gets = run_gets(sim, client, range(20))
        report = sim.run_process(cluster.rejoin(0))
        return (gets, sim.now, cluster.failovers, client.stale_reads,
                client.availability_gap_ns, report.caught_up,
                report.replayed_txns,
                sorted(cluster.targets[0].versions.items()))

    assert run() == run()


def test_failover_experiment_needs_a_replicated_shard_count():
    """The crash row fails over to a replica, so at least one shard
    count must be > 1; saying so beats ``max()`` of an empty sequence."""
    from repro.bench.experiments import cluster_failover

    with pytest.raises(InvalidArgument, match="shard_counts"):
        cluster_failover(shard_counts=(1,), ops=8)
