"""Tests for bloom filters, SSTables, the LSM tree, and the KV facade."""

import hashlib
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.structures.lsm as lsm_module
from repro.device import BlockDevice
from repro.errors import InvalidArgument
from repro.kernel.extfs import ExtFs
from repro.structures import KvStore, LsmTree, MemoryBackend, SsTable
from repro.structures.lsm import (_LANES, TOMBSTONE, BloomFilter,
                                  CompactionPlan)


def make_fs(blocks=4096):
    return ExtFs(BlockDevice(blocks * 8))


# ---------------------------------------------------------------------------
# Bloom filter
# ---------------------------------------------------------------------------


def test_bloom_no_false_negatives():
    bloom = BloomFilter.for_entries(1000)
    keys = [k * 7 + 1 for k in range(1000)]
    bloom.add_many(keys)
    assert all(bloom.may_contain(key) for key in keys)


def test_bloom_false_positive_rate_reasonable():
    bloom = BloomFilter.for_entries(1000)
    bloom.add_many(range(1000))
    false_positives = sum(
        bloom.may_contain(key) for key in range(10_000, 20_000))
    assert false_positives < 500  # ~1% expected at 10 bits/key


def test_bloom_serialisation():
    bloom = BloomFilter(256, 5)
    bloom.add_many([42])
    restored = BloomFilter.from_bytes(bloom.to_bytes(), 256, 5)
    assert restored.may_contain(42)
    assert not restored.may_contain(43)


def test_bloom_validation():
    with pytest.raises(InvalidArgument):
        BloomFilter(4)


def test_bloom_from_bytes_rejects_a_short_blob():
    # A resizing slice assignment used to shrink the bit array, and the
    # first may_contain past the end raised IndexError.
    with pytest.raises(InvalidArgument, match="needs 32 bytes, got 4"):
        BloomFilter.from_bytes(b"\0" * 4, 256, 5)
    # The on-disk filter is padded to a page: a longer blob is cut to size.
    bloom = BloomFilter(250, 5)
    bloom.add_many([42])
    padded = BloomFilter.from_bytes(bloom.to_bytes() + bytes(100), 250, 5)
    assert padded.to_bytes() == bloom.to_bytes()
    assert padded.may_contain(42)


_ODD_KEYS = [0, 2**64 - 1, 2**64, -1, 2**70 + 5]


def _random_keys(seed, count):
    """u64 keys with the edges, and keys outside u64, mixed in (hypothesis
    cannot draw a list of thousands itself)."""
    rng = random.Random(seed)
    return [rng.choice(_ODD_KEYS) if rng.random() < 0.05
            else rng.getrandbits(64) for _ in range(count)]


def _add_loop(num_bits, num_hashes, keys):
    """The filter bytes a key-at-a-time insert sets: bit
    ``_mix(key, salt) % num_bits`` for every salt, the bits may_contain
    tests."""
    bits = bytearray((num_bits + 7) // 8)
    for key in keys:
        for salt in range(num_hashes):
            bit = lsm_module._mix(key, salt) % num_bits
            bits[bit // 8] |= 1 << (bit % 8)
    return bytes(bits)


@given(seed=st.integers(0, 2**32),
       count=st.one_of(st.integers(0, 3),
                       st.integers(_LANES - 1, _LANES + 1),
                       st.integers(2 * _LANES + 1, 2 * _LANES + 900)),
       num_bits=st.one_of(st.integers(8, 5000),
                          st.integers(1, 625).map(lambda n: n * 8)),
       num_hashes=st.integers(1, 9))
@example(seed=1, count=_LANES, num_bits=4096, num_hashes=9)
@example(seed=2, count=_LANES + 1, num_bits=4999, num_hashes=7)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_bloom_add_many_sets_the_bits_of_an_add_loop(
        seed, count, num_bits, num_hashes):
    keys = _random_keys(seed, count)
    resident = _random_keys(seed + 1, 5)
    bulk = BloomFilter(num_bits, num_hashes)
    bulk.add_many(resident)  # bits already set must survive the next insert
    bulk.add_many(keys)
    assert bulk.to_bytes() == _add_loop(num_bits, num_hashes,
                                        resident + keys)
    assert all(bulk.may_contain(key) for key in resident + keys)


def test_bloom_add_many_of_nothing_changes_nothing():
    fresh = BloomFilter(77, 3)
    fresh.add_many([])
    assert fresh.to_bytes() == bytes(10)
    populated = BloomFilter(77, 3)
    populated.add_many([1, 2, 2**64 - 1])
    before = populated.to_bytes()
    populated.add_many([])
    assert populated.to_bytes() == before


def test_bloom_add_many_takes_any_iterable():
    keys = [key * 977 for key in range(_LANES + 10)]
    from_list = BloomFilter.for_entries(len(keys))
    from_list.add_many(keys)
    from_generator = BloomFilter.for_entries(len(keys))
    from_generator.add_many(key for key in keys)
    assert from_generator.to_bytes() == from_list.to_bytes()


# ---------------------------------------------------------------------------
# SSTable
# ---------------------------------------------------------------------------


def test_sstable_build_and_get():
    items = [(i * 3, i * 10) for i in range(1000)]
    table = SsTable.build(MemoryBackend(), items)
    assert table.num_entries == 1000
    assert (table.min_key, table.max_key) == (0, 999 * 3)
    for key, value in items[::37]:
        assert table.get(key) == value
    assert table.get(1) is None
    assert table.get(10**9) is None


def test_sstable_get_traced_is_three_hops():
    items = [(i, i) for i in range(600)]
    table = SsTable.build(MemoryBackend(), items)
    value, visited = table.get_traced(599)
    assert value == 599
    assert len(visited) == 3  # root index -> index -> data


def test_sstable_may_contain_uses_range_and_bloom():
    items = [(i * 2, i) for i in range(100, 200)]
    table = SsTable.build(MemoryBackend(), items)
    assert not table.may_contain(0)      # below range
    assert not table.may_contain(10**6)  # above range
    assert table.may_contain(200)        # in range and inserted


def test_sstable_entries_iterates_in_order():
    items = [(i * 5, i) for i in range(700)]
    table = SsTable.build(MemoryBackend(), items)
    assert list(table.entries()) == items


def test_sstable_rejects_bad_builds():
    with pytest.raises(InvalidArgument):
        SsTable.build(MemoryBackend(), [])
    with pytest.raises(InvalidArgument):
        SsTable.build(MemoryBackend(), [(2, 0), (1, 0)])


def test_sstable_rejects_out_of_range_before_writing():
    for items in ([(-3, 1), (4, 2)], [(1, 1), (2**64, 2)],
                  [(1, 1), (2, -5), (3, 3)], [(1, 2**64), (2, 2)]):
        backend = MemoryBackend()
        with pytest.raises(InvalidArgument, match=r"outside \[0, 2\^64\)"):
            SsTable.build(backend, items)
        assert backend.size == 0
    table = SsTable.build(MemoryBackend(), [(0, 0), (2**64 - 1, TOMBSTONE)])
    assert table.get(2**64 - 1) == TOMBSTONE


@pytest.mark.parametrize("items, digest", [
    # Recorded at 6010520, where build hashed key by key through add.
    ([(7, 70)],
     "315ec333a7d9923dd6c9a37f2b7da084f207abc0be21fe82beaeab1369c2c8a1"),
    ([(i * 3 + 1, i * 11) for i in range(256)],  # two data pages
     "00067fcf9f85983d0921bd3ff1f822076f38323b9476c1f9d681a068cb9caded"),
    ([(i * 5, TOMBSTONE if i % 9 == 0 else i * 7 + 1)
      for i in range(10_000)],
     "13c4035bb51e2ecc7a7750145a8c6e84d70b3c266d6fb2ff5e820336485cee2b"),
], ids=["1-entry", "256-entries", "10000-entries"])
def test_sstable_image_is_pinned(items, digest):
    backend = MemoryBackend()
    SsTable.build(backend, items)
    image = backend.read(0, backend.size)
    assert hashlib.sha256(image).hexdigest() == digest


def test_sstable_build_hashes_in_bulk(monkeypatch):
    def scalar_mix(key, salt):
        raise AssertionError("build hashed key by key")

    monkeypatch.setattr(lsm_module, "_mix", scalar_mix)
    table = SsTable.build(MemoryBackend(),
                          [(i * 3, i) for i in range(1000)])
    assert table.num_entries == 1000
    with pytest.raises(AssertionError):
        table.may_contain(3)  # lookups still go through the definition


def test_sstable_reopen():
    backend = MemoryBackend()
    SsTable.build(backend, [(1, 10), (2, 20)])
    table = SsTable(backend)
    assert table.get(2) == 20


# ---------------------------------------------------------------------------
# LSM tree
# ---------------------------------------------------------------------------


def test_lsm_put_get_through_memtable():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=100)
    lsm.put(1, 10)
    assert lsm.get(1) == 10
    assert lsm.get(2) is None


def test_lsm_flush_on_threshold():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=10)
    for key in range(10):
        lsm.put(key, key)
    assert lsm.flushes == 1
    assert len(lsm.memtable) == 0
    for key in range(10):
        assert lsm.get(key) == key


def test_lsm_reads_prefer_newer_values():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=4)
    for round_number in range(3):
        for key in range(4):
            lsm.put(key, key + 100 * round_number)
    for key in range(4):
        assert lsm.get(key) == key + 200


def test_lsm_delete_tombstones():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=4)
    for key in range(4):
        lsm.put(key, key)          # flushed to disk
    lsm.delete(2)
    assert lsm.get(2) is None
    assert lsm.get(1) == 1


def test_lsm_tombstone_value_rejected():
    lsm = LsmTree(make_fs(), "/db")
    with pytest.raises(InvalidArgument):
        lsm.put(1, TOMBSTONE)


def test_lsm_rejects_keys_and_values_outside_u64():
    # encode_page cannot pack them; accepted, they used to blow up inside
    # the next flush, after it had already swapped the memtable out.
    fs = make_fs()
    lsm = LsmTree(fs, "/db", memtable_limit=4)
    lsm.put(1, 10)
    lsm.put(2, 20)
    with pytest.raises(InvalidArgument, match="key -3 "):
        lsm.put(-3, 30)
    with pytest.raises(InvalidArgument, match=f"key {2**64} "):
        lsm.delete(2**64)
    with pytest.raises(InvalidArgument, match="value -1 "):
        lsm.put(3, -1)
    with pytest.raises(InvalidArgument, match=f"value {2**64} "):
        lsm.put(3, 2**64)
    assert lsm.memtable == {1: 10, 2: 20}
    lsm.put(4, 40)
    lsm.put(2**64 - 1, 0)  # the fourth good entry: flushes
    assert lsm.flushes == 1 and lsm.memtable == {}
    assert [lsm.get(key) for key in (1, 2, 4, 2**64 - 1)] == [10, 20, 40, 0]
    assert sorted(fs.lookup("/db").entries) == ["sst-000001"]


def test_lsm_compaction_merges_and_unlinks():
    fs = make_fs()
    lsm = LsmTree(fs, "/db", memtable_limit=8, l0_limit=2)
    for key in range(100):
        lsm.put(key, key * 2)
    lsm.flush()
    assert lsm.compactions >= 1
    assert lsm.tables_deleted >= 2
    for key in range(100):
        assert lsm.get(key) == key * 2
    # Deleted table files are gone from the namespace.
    live = sorted(fs.lookup("/db").entries)
    assert len(live) == lsm.table_count()


def test_lsm_compaction_drops_tombstones_at_bottom():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=8, l0_limit=2)
    for key in range(40):
        lsm.put(key, key)
    for key in range(0, 40, 2):
        lsm.delete(key)
    lsm.flush()
    # Force full compaction to the bottom level.
    while len(lsm.levels[0]) > 0:
        lsm._compact(0)
    for key in range(40):
        expected = None if key % 2 == 0 else key
        assert lsm.get(key) == expected


def test_lsm_candidate_tables_newest_first():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=4, l0_limit=10)
    for round_number in range(3):
        for key in range(4):
            lsm.put(key, round_number)
    candidates = lsm.candidate_tables(0)
    assert len(candidates) >= 2
    # Newest table must come first so its value wins.
    assert candidates[0][1].get(0) == 2


@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 200),
                          st.integers(0, 2**32),
                          st.booleans()),
                min_size=1, max_size=300))
def test_lsm_matches_dict_reference(operations):
    lsm = LsmTree(make_fs(), "/db", memtable_limit=16, l0_limit=2)
    reference = {}
    for key, value, is_delete in operations:
        if is_delete:
            lsm.delete(key)
            reference.pop(key, None)
        else:
            lsm.put(key, value)
            reference[key] = value
    for key in range(0, 201, 7):
        assert lsm.get(key) == reference.get(key)


# ---------------------------------------------------------------------------
# Compaction planning (the repro.compact seam)
# ---------------------------------------------------------------------------


def test_lsm_tombstone_drop_survives_trailing_empty_levels():
    # Regression: the old bottom-level check compared against
    # len(levels) - 1, so planning at a deep level (which extends the
    # levels list with empty slots) made every later level-0 compaction
    # keep its tombstones forever.
    lsm = LsmTree(make_fs(), "/db", memtable_limit=64, l0_limit=8)
    for key in range(40):
        lsm.put(key, key)
    for key in range(0, 40, 2):
        lsm.delete(key)
    lsm.flush()
    assert lsm.plan_compaction(2) is None  # extends levels with empties
    assert len(lsm.levels) >= 4
    plan = lsm.plan_compaction(0)
    assert plan.drop_tombstones  # empty trailing levels are not "deeper data"
    lsm._compact(0)
    merged = list(lsm.levels[1][0][1].entries())
    assert all(value != TOMBSTONE for _key, value in merged)
    assert len(merged) == 20


def test_lsm_tombstones_kept_above_populated_bottom():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=64, l0_limit=8)
    for key in range(20):
        lsm.put(key, key)
    lsm.flush()
    lsm._compact(0)
    lsm._compact(1)  # push the data to level 2
    lsm.delete(3)
    lsm.flush()
    plan = lsm.plan_compaction(0)
    assert not plan.drop_tombstones  # level 2 still holds key 3
    lsm._compact(0)
    merged = list(lsm.levels[1][0][1].entries())
    assert (3, TOMBSTONE) in merged
    assert lsm.get(3) is None


def test_lsm_overlapping_l0_merge_order_newest_wins():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=64, l0_limit=8)
    for value in (1, 2, 3):  # three overlapping runs, same key range
        for key in range(10):
            lsm.put(key, value * 100 + key)
        lsm.flush()
    plan = lsm.plan_compaction(0)
    # merge_order folds oldest first so the newest run wins the upsert.
    assert plan.merge_order[-1] == lsm.levels[0][-1]
    lsm._compact(0)
    assert len(lsm.levels[0]) == 0
    merged = list(lsm.levels[1][0][1].entries())
    assert merged == [(key, 300 + key) for key in range(10)]


def test_lsm_single_run_trivial_compaction():
    lsm = LsmTree(make_fs(), "/db", memtable_limit=64, l0_limit=8)
    for key in range(10):
        lsm.put(key, key * 7)
    lsm.flush()
    before = list(lsm.levels[0][0][1].entries())
    lsm._compact(0)
    assert len(lsm.levels[0]) == 0
    assert len(lsm.levels[1]) == 1
    assert list(lsm.levels[1][0][1].entries()) == before
    assert lsm.compactions == 1
    assert lsm.tables_deleted == 1


def test_lsm_flush_during_compaction_survives():
    # A memtable flush that lands between plan and apply (the
    # CompactionEngine window) must not be clobbered by the level swap.
    lsm = LsmTree(make_fs(), "/db", memtable_limit=64, l0_limit=8)
    for key in range(10):
        lsm.put(key, 1)
    lsm.flush()
    plan = lsm.plan_compaction(0)
    merged = lsm._merge_tables([table for _p, table in plan.merge_order],
                               drop_tombstones=plan.drop_tombstones)
    for key in range(5):
        lsm.put(key, 2)  # concurrent writer
    lsm.flush()          # new L0 table mid-compaction
    lsm.apply_compaction(plan, merged)
    assert len(lsm.levels[0]) == 1  # the mid-compaction flush survived
    for key in range(10):
        assert lsm.get(key) == (2 if key < 5 else 1)


def test_lsm_compaction_invalidates_every_input_table():
    fs = make_fs()
    lsm = LsmTree(fs, "/db", memtable_limit=64, l0_limit=8)
    for run in range(3):
        for key in range(10):
            lsm.put(key + run * 5, run)
        lsm.flush()
    plan = lsm.plan_compaction(0)
    input_inodes = {fs.lookup(path).number for path in plan.input_paths()}
    unmapped = set()
    fs.extent_change_listeners.append(
        lambda inode, kind: unmapped.add(inode.number)
        if kind == "unmap" else None)
    merged = lsm._merge_tables([table for _p, table in plan.merge_order],
                               drop_tombstones=plan.drop_tombstones)
    lsm.apply_compaction(plan, merged)
    # Every unlinked input fired the unmap hook (NVMe extent-cache
    # invalidation), so concurrent chain gets fail closed, not stale.
    assert input_inodes <= unmapped


def test_compaction_plan_orders_inputs_and_merge():
    upper = [("/db/2", "t2"), ("/db/3", "t3")]
    lower = [("/db/1", "t1")]
    plan = CompactionPlan(0, upper, lower, True)
    assert plan.inputs == upper + lower
    assert plan.merge_order == lower + upper  # oldest data folds first
    assert plan.input_paths() == ["/db/1", "/db/2", "/db/3"]


# ---------------------------------------------------------------------------
# KvStore facade
# ---------------------------------------------------------------------------


def test_kvstore_btree_bulk_and_overlay():
    store = KvStore(make_fs(), "/index", fanout=8)
    store.bulk_load([(i, i) for i in range(100)])
    assert store.get(50) == 50
    store.put(50, 999)
    store.put(200, 7)
    assert store.get(50) == 999
    assert store.get(51) == 51
    assert store.get(200) == 7
    assert store.overlay_size == 2


def test_kvstore_btree_rebuild_applies_overlay():
    fs = make_fs()
    store = KvStore(fs, "/index", fanout=8)
    store.bulk_load([(i, i) for i in range(100)])
    store.put(200, 42)
    store.put(3, 33)
    count = store.rebuild()
    assert count == 101  # +1 insert, 1 update
    assert store.overlay_size == 0
    assert store.get(200) == 42
    assert store.get(3) == 33
    assert store.get(10) == 10


def test_kvstore_btree_scan_merges_overlay():
    store = KvStore(make_fs(), "/index", fanout=8)
    store.bulk_load([(i, i) for i in range(10)])
    store.put(5, 500)
    store.put(20, 2)
    assert store.scan(4, 8) == [(4, 4), (5, 500), (6, 6), (7, 7)]
