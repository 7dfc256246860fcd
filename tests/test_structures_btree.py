"""Tests for page codecs and the on-disk B+-tree."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.structures import BTree, MemoryBackend
from repro.structures.pages import (
    BTREE_PAGE_MAGIC,
    FANOUT_MAX,
    PAGE_SIZE,
    decode_page,
    encode_page,
    search_page,
)
from simutil import record_reads


# ---------------------------------------------------------------------------
# Pages
# ---------------------------------------------------------------------------


def test_page_roundtrip():
    entries = [(10, 100), (20, 200), (30, 300)]
    page = encode_page(BTREE_PAGE_MAGIC, 2, entries)
    assert len(page) == PAGE_SIZE
    magic, level, decoded = decode_page(page)
    assert (magic, level, decoded) == (BTREE_PAGE_MAGIC, 2, entries)


def test_page_rejects_unsorted():
    with pytest.raises(InvalidArgument):
        encode_page(BTREE_PAGE_MAGIC, 0, [(2, 0), (1, 0)])


def test_page_rejects_overflow():
    entries = [(i, i) for i in range(FANOUT_MAX + 1)]
    with pytest.raises(InvalidArgument):
        encode_page(BTREE_PAGE_MAGIC, 0, entries)


def test_search_page_boundaries():
    page = encode_page(BTREE_PAGE_MAGIC, 0, [(10, 1), (20, 2), (30, 3)])
    assert search_page(page, 5) == (-1, None)
    assert search_page(page, 10) == (0, 1)
    assert search_page(page, 15) == (0, 1)
    assert search_page(page, 30) == (2, 3)
    assert search_page(page, 99) == (2, 3)


@given(st.lists(st.integers(0, 2**63), min_size=1, max_size=FANOUT_MAX,
                unique=True))
def test_search_page_matches_reference(keys):
    keys = sorted(keys)
    entries = [(key, index) for index, key in enumerate(keys)]
    page = encode_page(BTREE_PAGE_MAGIC, 0, entries)
    for probe in keys + [0, 2**64 - 1, keys[0] + 1]:
        index, value = search_page(page, probe)
        expected = max((i for i, (k, _v) in enumerate(entries)
                        if k <= probe), default=-1)
        assert index == expected
        if expected >= 0:
            assert value == entries[expected][1]


# ---------------------------------------------------------------------------
# B-tree
# ---------------------------------------------------------------------------


def build_tree(num_keys, fanout=4, stride=3):
    backend = MemoryBackend()
    items = [(i * stride + 1, i * 100) for i in range(num_keys)]
    tree = BTree.build(backend, items, fanout=fanout)
    return tree, dict(items)


def test_single_leaf_tree():
    tree, reference = build_tree(3)
    assert tree.depth == 1
    for key, value in reference.items():
        assert tree.lookup(key) == value


def test_multi_level_lookup():
    tree, reference = build_tree(200, fanout=4)
    assert tree.depth >= 4
    for key, value in reference.items():
        assert tree.lookup(key) == value


def test_lookup_missing_keys():
    tree, reference = build_tree(50, fanout=4)
    assert tree.lookup(0) is None          # below all keys
    assert tree.lookup(2) is None          # between keys
    assert tree.lookup(10**9) is None      # above all keys


def test_lookup_traced_visits_depth_pages(monkeypatch):
    tree, reference = build_tree(200, fanout=4)
    key = next(iter(reference))
    visited = record_reads(monkeypatch, tree.backend)
    assert tree.lookup(key) == reference[key]
    assert len(visited) == tree.depth
    assert visited[0] == tree.meta.root_offset


def test_depth_control():
    for depth in range(1, 6):
        keys = BTree.keys_for_depth(depth, fanout=4)
        items = [(i, i) for i in range(keys)]
        tree = BTree.build(MemoryBackend(), items, fanout=4)
        assert tree.depth == depth, f"expected depth {depth}"


def test_build_rejects_bad_input():
    with pytest.raises(InvalidArgument):
        BTree.build(MemoryBackend(), [])
    with pytest.raises(InvalidArgument):
        BTree.build(MemoryBackend(), [(2, 0), (1, 0)])
    with pytest.raises(InvalidArgument):
        BTree.build(MemoryBackend(), [(1, 0), (1, 1)])
    with pytest.raises(InvalidArgument):
        BTree.build(MemoryBackend(), [(1, 0)], fanout=1)


def test_memory_backend_read_copies_the_image_once():
    """A read of the whole backend holds one copy of it at its peak."""
    size = 1 << 20
    backend = MemoryBackend(bytes(range(256)) * (size // 256))
    tracemalloc.start()
    try:
        data = backend.read(0, size)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data == bytes(range(256)) * (size // 256)
    assert peak < 1.25 * size


@given(st.data())
def test_memory_backend_matches_reference_model(data):
    """Writes at any offset (past EOF, the gap reads as zeros; an empty
    write changes nothing, as through an ``FsBackend``), overlapping
    overwrites, partial and whole reads and reads past EOF against a
    ``bytearray``; bytes a whole read returned never change afterwards."""
    backend = MemoryBackend()
    reference = bytearray()
    handed_out = []  # (bytes a whole read returned, what they held)
    for _ in range(data.draw(st.integers(min_value=1, max_value=24))):
        op = data.draw(st.sampled_from(
            ["write", "read", "whole read", "read past EOF"]))
        size = len(reference)
        if op == "write":
            offset = data.draw(st.integers(0, size + 600))
            payload = data.draw(st.binary(max_size=600))
            backend.write(offset, payload)
            if offset > size and payload:  # an empty write is a no-op
                reference.extend(bytes(offset - size))
            reference[offset:offset + len(payload)] = payload
        elif op == "read":
            offset = data.draw(st.integers(0, size))
            length = data.draw(st.integers(0, size - offset))
            assert backend.read(offset, length) \
                == reference[offset:offset + length]
        elif op == "whole read":
            whole = backend.read(0, size)
            assert isinstance(whole, bytes) and whole == reference
            handed_out.append((whole, bytes(reference)))
        else:
            offset = data.draw(st.integers(0, size))
            with pytest.raises(InvalidArgument):
                backend.read(offset, size - offset + data.draw(
                    st.integers(1, 600)))
        assert backend.size == len(reference)
        for whole, held in handed_out:
            assert whole == held
    assert backend.read(0, backend.size) == reference


@pytest.mark.parametrize("depth,fanout", [(6, 7), (12, 2)])
def test_build_image_peaks_at_one_copy(depth, fanout):
    """The image is built in the buffer it is handed over in: building it
    holds about one image's bytes at its peak, not the buffer and a copy
    of it (2.08x at depth 6 when the whole read copied)."""
    items = [(key * 3 + 1, key)
             for key in range(BTree.keys_for_depth(depth, fanout))]
    tracemalloc.start()
    try:
        start, _peak = tracemalloc.get_traced_memory()
        image = BTree.build_image(items, fanout=fanout)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert BTree(MemoryBackend(image)).depth == depth
    assert peak - start < 1.3 * len(image)


def test_range_scan():
    tree, reference = build_tree(100, fanout=5, stride=2)
    low, high = 21, 101
    expected = sorted((k, v) for k, v in reference.items()
                      if low <= k < high)
    assert tree.range_scan(low, high) == expected


def test_range_scan_full():
    tree, reference = build_tree(64, fanout=4)
    assert tree.range_scan(0, 2**64 - 1) == sorted(reference.items())


def test_reopen_from_backend():
    backend = MemoryBackend()
    items = [(i, i * 7) for i in range(100)]
    BTree.build(backend, items, fanout=8)
    reopened = BTree(backend)
    assert reopened.lookup(42) == 42 * 7
    assert reopened.meta.num_keys == 100


@settings(max_examples=25)
@given(st.sets(st.integers(0, 2**40), min_size=1, max_size=300),
       st.integers(2, 16))
def test_btree_matches_dict_reference(keys, fanout):
    items = [(key, key ^ 0xABCD) for key in sorted(keys)]
    tree = BTree.build(MemoryBackend(), items, fanout=fanout)
    for key, value in items:
        assert tree.lookup(key) == value
    for probe in list(keys)[:10]:
        assert tree.lookup(probe + 1) == (
            (probe + 1) ^ 0xABCD if probe + 1 in keys else None)
