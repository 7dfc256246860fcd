"""Tests for the extent file system."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import BlockDevice
from repro.errors import (
    FileExists,
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NoSpace,
    NotADirectory,
)
from repro.kernel.extfs import BLOCK_SIZE, ExtFs


def make_fs(blocks=256, max_extent_blocks=32768):
    media = BlockDevice(blocks * 8)
    return ExtFs(media, max_extent_blocks=max_extent_blocks)


# ---------------------------------------------------------------------------
# Namespace
# ---------------------------------------------------------------------------


def test_create_lookup_unlink():
    fs = make_fs()
    inode = fs.create("/a")
    assert fs.lookup("/a") is inode
    fs.unlink("/a")
    with pytest.raises(FileNotFound):
        fs.lookup("/a")


def test_nested_directories():
    fs = make_fs()
    fs.mkdir("/d")
    fs.mkdir("/d/e")
    inode = fs.create("/d/e/f")
    assert fs.lookup("/d/e/f") is inode
    assert sorted(fs.lookup("/d").entries) == ["e"]


def test_create_duplicate_rejected():
    fs = make_fs()
    fs.create("/a")
    with pytest.raises(FileExists):
        fs.create("/a")


def test_create_under_file_rejected():
    fs = make_fs()
    fs.create("/a")
    with pytest.raises(NotADirectory):
        fs.create("/a/b")


def test_unlink_directory_rejected():
    fs = make_fs()
    fs.mkdir("/d")
    with pytest.raises(IsADirectory):
        fs.unlink("/d")


def test_relative_path_rejected():
    fs = make_fs()
    with pytest.raises(InvalidArgument):
        fs.create("a")


def test_rename_moves_and_replaces():
    fs = make_fs()
    a = fs.create("/a")
    fs.write_sync(a, 0, b"x" * BLOCK_SIZE)
    b = fs.create("/b")
    fs.write_sync(b, 0, b"y" * BLOCK_SIZE)
    fs.rename("/a", "/b")
    assert fs.lookup("/b") is a
    assert not fs.exists("/a")


def test_rename_replacing_frees_old_blocks():
    fs = make_fs(blocks=16)
    victim = fs.create("/old")
    fs.write_sync(victim, 0, b"v" * (8 * BLOCK_SIZE))
    free_before = fs._allocator.free_blocks()
    replacement = fs.create("/new")
    fs.write_sync(replacement, 0, b"n" * BLOCK_SIZE)
    fs.rename("/new", "/old")
    assert fs._allocator.free_blocks() == free_before + 8 - 1


# ---------------------------------------------------------------------------
# Data and extents
# ---------------------------------------------------------------------------


def test_write_read_roundtrip():
    fs = make_fs()
    inode = fs.create("/f")
    payload = bytes(range(256)) * 64  # 16 KiB
    fs.write_sync(inode, 0, payload)
    assert fs.read_sync(inode, 0, len(payload)) == payload
    assert inode.size == len(payload)


def test_unaligned_overwrite():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"a" * BLOCK_SIZE)
    fs.write_sync(inode, 100, b"XYZ")
    data = fs.read_sync(inode, 0, BLOCK_SIZE)
    assert data[99:104] == b"aXYZa"


def test_read_hole_returns_zeroes():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 2 * BLOCK_SIZE, b"z" * BLOCK_SIZE)
    assert fs.read_sync(inode, 0, BLOCK_SIZE) == bytes(BLOCK_SIZE)


def test_contiguous_allocation_yields_one_extent():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"q" * (20 * BLOCK_SIZE))
    assert len(inode.extents) == 1


def test_max_extent_blocks_forces_fragmentation():
    fs = make_fs(max_extent_blocks=4)
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"q" * (20 * BLOCK_SIZE))
    assert len(inode.extents) == 5
    # Data is still intact across the extents.
    assert fs.read_sync(inode, 0, 20 * BLOCK_SIZE) == b"q" * (20 * BLOCK_SIZE)


def test_interleaved_files_fragment():
    fs = make_fs(max_extent_blocks=2)
    a = fs.create("/a")
    b = fs.create("/b")
    for index in range(8):
        fs.write_sync(a, index * BLOCK_SIZE, b"a" * BLOCK_SIZE)
        fs.write_sync(b, index * BLOCK_SIZE, b"b" * BLOCK_SIZE)
    assert fs.read_sync(a, 0, 8 * BLOCK_SIZE) == b"a" * (8 * BLOCK_SIZE)
    assert len(a.extents) >= 2


def test_map_range_alignment_enforced():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    with pytest.raises(InvalidArgument):
        fs.map_range(inode, 100, 512)
    with pytest.raises(InvalidArgument):
        fs.map_range(inode, 0, 100)


def test_map_range_sector_granularity():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (2 * BLOCK_SIZE))
    segments = fs.map_range(inode, 512, 512)
    assert len(segments) == 1
    lba, sectors = segments[0]
    assert sectors == 1
    phys = inode.extents.lookup(0)
    assert lba == phys * 8 + 1


def test_truncate_frees_blocks_and_notifies():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (8 * BLOCK_SIZE))
    events = []
    fs.extent_change_listeners.append(lambda ino, kind: events.append(kind))
    fs.truncate(inode, BLOCK_SIZE)
    assert events == ["unmap"]
    assert inode.size == BLOCK_SIZE
    assert sum(extent.count for extent in inode.extents) == 1


def test_grow_notifies_grow_not_unmap():
    fs = make_fs()
    inode = fs.create("/f")
    events = []
    fs.extent_change_listeners.append(lambda ino, kind: events.append(kind))
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    assert events == ["grow"]


def test_unlink_frees_space():
    fs = make_fs(blocks=16)
    free_at_start = fs._allocator.free_blocks()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (10 * BLOCK_SIZE))
    fs.unlink("/f")
    assert fs._allocator.free_blocks() == free_at_start


def test_no_space():
    fs = make_fs(blocks=4)
    inode = fs.create("/f")
    with pytest.raises(NoSpace):
        fs.write_sync(inode, 0, b"x" * (16 * BLOCK_SIZE))


def test_punch_requires_alignment():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (4 * BLOCK_SIZE))
    with pytest.raises(InvalidArgument):
        fs.punch_range(inode, 100, BLOCK_SIZE)


def test_punch_then_rewrite_reallocates():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (4 * BLOCK_SIZE))
    fs.punch_range(inode, BLOCK_SIZE, BLOCK_SIZE)
    assert inode.extents.lookup(1) is None
    fs.write_sync(inode, BLOCK_SIZE, b"y" * BLOCK_SIZE)
    assert fs.read_sync(inode, BLOCK_SIZE, BLOCK_SIZE) == b"y" * BLOCK_SIZE


@settings(max_examples=30)
@given(st.data())
def test_fs_matches_reference_bytes(data):
    """Random writes/reads agree with an in-memory reference buffer."""
    fs = make_fs(blocks=64)
    inode = fs.create("/f")
    size = 16 * BLOCK_SIZE
    reference = bytearray(size)
    for _ in range(data.draw(st.integers(1, 12))):
        offset = data.draw(st.integers(0, size - 1))
        length = data.draw(st.integers(1, min(4096, size - offset)))
        if data.draw(st.booleans()):
            fill = bytes([data.draw(st.integers(0, 255))]) * length
            fs.write_sync(inode, offset, fill)
            reference[offset : offset + length] = fill
        else:
            assert fs.read_sync(inode, offset, length) == bytes(
                reference[offset : offset + length]
            )
