"""Tests for extent trees."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.kernel.extent import Extent, ExtentTree


def test_extent_validation():
    with pytest.raises(InvalidArgument):
        Extent(0, 0, 0)
    with pytest.raises(InvalidArgument):
        Extent(-1, 0, 1)


def test_extent_translate():
    extent = Extent(10, 100, 5)
    assert extent.translate(12) == 102
    with pytest.raises(InvalidArgument):
        extent.translate(15)


def test_tree_lookup():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    tree.add(Extent(8, 90, 2))
    assert tree.lookup(2) == 52
    assert tree.lookup(4) is None  # hole
    assert tree.lookup(9) == 91


def test_tree_rejects_overlap():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    with pytest.raises(InvalidArgument):
        tree.add(Extent(2, 80, 4))
    with pytest.raises(InvalidArgument):
        tree.add(Extent(0, 80, 1))


def test_tree_merges_contiguous():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    tree.add(Extent(4, 54, 4))  # physically contiguous too
    assert len(tree) == 1
    assert tree.lookup(7) == 57


def test_tree_does_not_merge_discontiguous():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    tree.add(Extent(4, 90, 4))  # logically adjacent, physically not
    assert len(tree) == 2


def test_version_bumps_on_mutation():
    tree = ExtentTree()
    assert tree.version == 0
    tree.add(Extent(0, 50, 4))
    assert tree.version == 1
    tree.punch(0, 2)
    assert tree.version == 2


def test_punch_middle_splits():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 10))
    punched = tree.punch(3, 4)
    assert punched == [Extent(3, 53, 4)]
    assert tree.lookup(2) == 52
    assert tree.lookup(3) is None
    assert tree.lookup(6) is None
    assert tree.lookup(7) == 57
    assert tree.unmap_events == 1


def test_punch_nothing_is_not_an_unmap_event():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    version = tree.version
    assert tree.punch(10, 5) == []
    assert tree.unmap_events == 0
    assert tree.version == version


def test_map_range_coalesces():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 4))
    tree.add(Extent(4, 54, 2))  # merges with previous
    tree.add(Extent(6, 90, 2))
    assert tree.map_range(0, 8) == [(50, 6), (90, 2)]


def test_map_range_hole_rejected():
    tree = ExtentTree()
    tree.add(Extent(0, 50, 2))
    with pytest.raises(InvalidArgument, match="unmapped"):
        tree.map_range(0, 4)


@given(st.lists(st.tuples(st.integers(0, 100), st.integers(1, 10)),
                min_size=1, max_size=20))
def test_tree_matches_dict_reference(ops):
    """Adding non-overlapping extents then translating matches a dict."""
    tree = ExtentTree()
    reference = {}
    next_phys = 1000
    for file_block, count in ops:
        blocks = range(file_block, file_block + count)
        if any(block in reference for block in blocks):
            with pytest.raises(InvalidArgument):
                tree.add(Extent(file_block, next_phys, count))
            continue
        tree.add(Extent(file_block, next_phys, count))
        for index, block in enumerate(blocks):
            reference[block] = next_phys + index
        next_phys += count + 7  # keep physical runs disjoint
    for block, phys in reference.items():
        assert tree.lookup(block) == phys
    assert sum(extent.count for extent in tree) == len(reference)
