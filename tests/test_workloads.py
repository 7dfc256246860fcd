"""Tests for key distributions and the YCSB workload generator."""

import pytest
from collections import Counter

from repro.errors import InvalidArgument
from repro.sim import RandomStreams
from repro.workloads import OpType, YcsbWorkload, ZipfianGenerator


def rng(name="w"):
    return RandomStreams(11).stream(name)


def test_zipfian_keys_in_range():
    gen = ZipfianGenerator(1000, rng(), theta=0.7)
    for _ in range(2000):
        assert 0 <= gen.next_key() < 1000


def test_zipfian_is_skewed():
    gen = ZipfianGenerator(10_000, rng(), theta=0.99)
    counts = Counter(gen.next_rank() for _ in range(20_000))
    top_share = sum(count for rank, count in counts.items()
                    if rank < 100) / 20_000
    assert top_share > 0.4  # the hottest 1% of ranks dominate


def test_zipfian_lower_theta_is_less_skewed():
    def top_share(theta):
        gen = ZipfianGenerator(10_000, rng(f"t{theta}"), theta=theta)
        counts = Counter(gen.next_rank() for _ in range(20_000))
        return sum(c for rank, c in counts.items() if rank < 100) / 20_000

    assert top_share(0.5) < top_share(0.95)


def test_zipfian_scrambles_hot_keys_across_space():
    gen = ZipfianGenerator(10_000, rng(), theta=0.99)
    counts = Counter(gen.next_key() for _ in range(20_000))
    hottest = counts.most_common(5)
    assert max(key for key, _count in hottest) > 1000


def test_zipfian_grow_incremental_matches_full_recompute():
    a = ZipfianGenerator(1000, rng("a"), theta=0.7)
    a.grow(1500)
    b = ZipfianGenerator(1500, rng("b"), theta=0.7)
    assert a._zetan == pytest.approx(b._zetan, rel=1e-9)
    assert a._eta == pytest.approx(b._eta, rel=1e-9)


def test_zipfian_validation():
    with pytest.raises(InvalidArgument):
        ZipfianGenerator(0, rng())
    with pytest.raises(InvalidArgument):
        ZipfianGenerator(10, rng(), theta=1.5)


def test_ycsb_paper_mix_fractions():
    workload = YcsbWorkload(10_000, rng(), mix="paper", theta=0.7)
    for _ in range(20_000):
        workload.next_operation()
    total = sum(workload.counts.values())
    assert workload.counts[OpType.READ] / total == pytest.approx(0.4,
                                                                 abs=0.02)
    assert workload.counts[OpType.UPDATE] / total == pytest.approx(0.4,
                                                                   abs=0.02)
    assert workload.counts[OpType.INSERT] / total == pytest.approx(0.2,
                                                                   abs=0.02)


def test_ycsb_inserts_extend_keyspace():
    workload = YcsbWorkload(100, rng(), mix="paper")
    inserted = [op.key for op in workload.operations(1000)
                if op.op is OpType.INSERT]
    assert inserted == list(range(100, 100 + len(inserted)))
    assert workload.keys.item_count == 100 + len(inserted)


def test_ycsb_deterministic_given_seed():
    a = YcsbWorkload(1000, RandomStreams(3).stream("x"), mix="a")
    b = YcsbWorkload(1000, RandomStreams(3).stream("x"), mix="a")
    ops_a = [(op.op, op.key) for op in a.operations(200)]
    ops_b = [(op.op, op.key) for op in b.operations(200)]
    assert ops_a == ops_b


def test_ycsb_scan_mix():
    workload = YcsbWorkload(1000, rng(), mix="e", scan_length=10)
    ops = list(workload.operations(500))
    scans = [op for op in ops if op.op is OpType.SCAN]
    assert scans
    assert all(op.scan_length == 10 for op in scans)


def test_ycsb_validation():
    with pytest.raises(InvalidArgument):
        YcsbWorkload(100, rng(), mix="zzz")
    with pytest.raises(InvalidArgument):
        YcsbWorkload(0, rng())
