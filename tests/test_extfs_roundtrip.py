"""Property-based ExtFs round-trips against a shadow byte array.

Random write/read/truncate sequences — deliberately unaligned, so the
read-modify-write tails at both ends of a write and spans crossing block
and extent boundaries are all exercised — must agree byte-for-byte with
a plain in-memory shadow.  Runs both the plain and the journaled file
system: journaling changes durability, never the bytes an application
reads back, and a final mid-sequence crash/recovery on the journaled
variant must reproduce the shadow at the last checkpoint-consistent
state.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.device import BlockDevice
from repro.kernel import JournalConfig
from repro.kernel.extfs import BLOCK_SIZE, ExtFs

FILE_SIZE = 24 * BLOCK_SIZE


def make_fs(journaled=False, blocks=512):
    media = BlockDevice(blocks * 8)
    config = JournalConfig(journal_blocks=16, checkpoint_blocks=16) \
        if journaled else None
    return ExtFs(media, journal_config=config)


#: Offsets biased toward block edges, where the RMW tail bugs live, and
#: sector edges inside a block (a sector-aligned start need not be
#: block-aligned).
def edge_biased_offsets(draw):
    block = draw(st.integers(0, FILE_SIZE // BLOCK_SIZE - 1))
    sector = draw(st.one_of(st.just(0), st.integers(1, 7)))
    fuzz = draw(st.integers(-3, 3))
    return max(0, min(FILE_SIZE - 1,
                      block * BLOCK_SIZE + sector * 512 + fuzz))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), journaled=st.booleans())
def test_unaligned_roundtrip_matches_shadow(data, journaled):
    fs = make_fs(journaled=journaled)
    inode = fs.create("/f")
    shadow = bytearray(FILE_SIZE)
    size = 0
    for step in range(data.draw(st.integers(2, 14))):
        offset = edge_biased_offsets(data.draw)
        action = data.draw(st.sampled_from(["write", "read", "truncate"]))
        if action == "write":
            length = data.draw(st.integers(1, 3 * BLOCK_SIZE))
            length = min(length, FILE_SIZE - offset)
            fill = bytes([(step * 37 + i) % 256 for i in range(length)])
            fs.write_sync(inode, offset, fill)
            shadow[offset : offset + length] = fill
            size = max(size, offset + length)
        elif action == "read":
            length = data.draw(st.integers(0, 3 * BLOCK_SIZE))
            length = min(length, max(0, size - offset))
            assert fs.read_sync(inode, offset, length) == \
                bytes(shadow[offset : offset + length])
        else:
            new_size = data.draw(st.integers(0, size)) if size else 0
            fs.truncate(inode, new_size)
            shadow[new_size:] = bytes(FILE_SIZE - new_size)
            size = new_size
        assert inode.size == size
    assert fs.read_sync(inode, 0, size) == bytes(shadow[:size])


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_journaled_roundtrip_survives_recovery(data):
    """Checkpoint, mutate, reload from media: reads match the shadow."""
    from repro.kernel import fsck, reload_fs

    fs = make_fs(journaled=True)
    inode = fs.create("/f")
    shadow = bytearray(FILE_SIZE)
    size = 0
    for step in range(data.draw(st.integers(1, 8))):
        offset = edge_biased_offsets(data.draw)
        length = min(data.draw(st.integers(1, 2 * BLOCK_SIZE)),
                     FILE_SIZE - offset)
        fill = bytes([(step * 53 + i) % 256 for i in range(length)])
        fs.write_sync(inode, offset, fill)
        shadow[offset : offset + length] = fill
        size = max(size, offset + length)
    # Everything is on media (write_sync is synchronous); commit the
    # metadata and remount from scratch.
    fs.journal.commit_sync()
    report = reload_fs(fs)
    assert report.replayed_txns >= 1
    assert fsck(fs).ok
    recovered = fs.lookup("/f")
    assert recovered.size == size
    assert fs.read_sync(recovered, 0, size) == bytes(shadow[:size])


def test_write_spanning_many_extents_reads_back():
    fs = make_fs()
    inode = fs.create("/f")
    # Force fragmentation: allocate with a small max extent so one write
    # spans several discontiguous extents.
    fs.max_extent_blocks = 2
    blob = bytes(range(256)) * (10 * BLOCK_SIZE // 256)
    fs.write_sync(inode, 7, blob)          # unaligned start, 10 blocks
    assert fs.read_sync(inode, 7, len(blob)) == blob
    assert fs.read_sync(inode, 0, 7) == bytes(7)
    assert len(list(inode.extents)) > 1
