"""Unit tests for the extent cache, accounting, hooks layout, and install."""

import pytest

from repro.core import (
    ChainAccounting,
    Hook,
    NvmeExtentCache,
    storage_ctx_layout,
    storage_helpers,
)
from repro.core.extent_cache import Translation
from repro.core.install import BpfInstallation
from repro.device import BlockDevice
from repro.ebpf import Program, assemble, verify
from repro.errors import InvalidArgument, VerifierError
from repro.kernel.extfs import BLOCK_SIZE, ExtFs
from simutil import newest_entry, pending


def make_fs(blocks=64, **kwargs):
    return ExtFs(BlockDevice(blocks * 8), **kwargs)


# ---------------------------------------------------------------------------
# NvmeExtentCache
# ---------------------------------------------------------------------------


def test_cache_translate_ok():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (4 * BLOCK_SIZE))
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    translation = entry.translate(BLOCK_SIZE, 512)
    assert translation.status == Translation.OK
    assert translation.sectors == 1
    assert translation.lba == inode.extents.lookup(1) * 8


def test_cache_translate_sub_block_offset():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    translation = entry.translate(1024, 512)
    assert translation.status == Translation.OK
    assert translation.lba == inode.extents.lookup(0) * 8 + 2


def test_cache_translate_miss_beyond_snapshot():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    # Grow after install: new blocks are not in the snapshot.
    fs.write_sync(inode, BLOCK_SIZE, b"y" * BLOCK_SIZE)
    assert entry.valid  # growth does not invalidate...
    translation = entry.translate(BLOCK_SIZE, 512)
    assert translation.status == Translation.MISS  # ...but misses


def test_cache_translate_split_across_extents():
    fs = make_fs(max_extent_blocks=1)
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (2 * BLOCK_SIZE))
    assert len(inode.extents) == 2
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    translation = entry.translate(0, 2 * BLOCK_SIZE)
    assert translation.status == Translation.SPLIT


def test_cache_translate_unaligned_misses():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    entry = NvmeExtentCache(fs).install(inode)
    assert entry.translate(100, 512).status == Translation.MISS
    assert entry.translate(0, 100).status == Translation.MISS


def test_cache_invalidated_on_unmap_only():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (4 * BLOCK_SIZE))
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    fs.write_sync(inode, 10 * BLOCK_SIZE, b"y" * BLOCK_SIZE)  # grow
    assert entry.valid
    fs.punch_range(inode, 0, BLOCK_SIZE)  # unmap
    assert not entry.valid
    assert cache.invalidations == 1


def test_cache_other_inode_unmap_does_not_invalidate():
    fs = make_fs()
    a = fs.create("/a")
    b = fs.create("/b")
    fs.write_sync(a, 0, b"x" * BLOCK_SIZE)
    fs.write_sync(b, 0, b"y" * BLOCK_SIZE)
    cache = NvmeExtentCache(fs)
    entry = cache.install(a)
    fs.punch_range(b, 0, BLOCK_SIZE)
    assert entry.valid


def test_cache_reinstall_revalidates():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * (2 * BLOCK_SIZE))
    cache = NvmeExtentCache(fs)
    first = cache.install(inode)
    fs.punch_range(inode, BLOCK_SIZE, BLOCK_SIZE)
    assert not first.valid
    second = cache.install(inode)
    assert second.valid
    assert second.epoch > first.epoch
    assert newest_entry(cache, inode) is second


def test_cache_lookup_block_many_extents_matches_linear_reference():
    """Regression for the bisect lookup on a heavily fragmented snapshot."""
    from repro.core.extent_cache import CacheEntry

    # 500 one-block extents with a gap after each: file blocks 0, 2, 4, ...
    # handed over deliberately unsorted.
    extents = [(2 * i, 1000 + 3 * i, 1) for i in range(500)]
    extents.reverse()
    entry = CacheEntry(1, extents, epoch=1)

    def linear(file_block):
        for start, phys, count in extents:
            if start <= file_block < start + count:
                return phys + (file_block - start)
        return None

    for file_block in range(-2, 1002):
        assert entry.lookup_block(file_block) == linear(file_block), \
            file_block


def test_cache_lookup_block_multi_block_extents():
    from repro.core.extent_cache import CacheEntry

    entry = CacheEntry(1, [(0, 100, 4), (8, 200, 2)], epoch=1)
    assert entry.lookup_block(0) == 100
    assert entry.lookup_block(3) == 103
    assert entry.lookup_block(4) is None   # gap
    assert entry.lookup_block(8) == 200
    assert entry.lookup_block(9) == 201
    assert entry.lookup_block(10) is None  # past the last extent
    assert CacheEntry(1, [], epoch=1).lookup_block(0) is None


def test_cache_force_invalidate_idempotent():
    fs = make_fs()
    inode = fs.create("/f")
    fs.write_sync(inode, 0, b"x" * BLOCK_SIZE)
    cache = NvmeExtentCache(fs)
    entry = cache.install(inode)
    cache.force_invalidate(entry, reason="fault")
    cache.force_invalidate(entry, reason="fault")
    assert not entry.valid
    assert cache.invalidations == 1


# ---------------------------------------------------------------------------
# ChainAccounting
# ---------------------------------------------------------------------------


def test_accounting_bound():
    acct = ChainAccounting(max_chain_hops=3)
    assert acct.may_resubmit(1, 2)
    assert not acct.may_resubmit(1, 3)


def test_accounting_charge_and_drain():
    acct = ChainAccounting()
    for _ in range(4):
        acct.charge(7)
    acct.charge(9)
    assert pending(acct, 7) == 4
    assert acct.drain_to_bio() == {7: 4, 9: 1}
    assert pending(acct, 7) == 0 and acct.drain_to_bio() == {}
    assert acct.totals == {7: 4, 9: 1}


def test_accounting_rejects_bad_bound():
    with pytest.raises(InvalidArgument):
        ChainAccounting(max_chain_hops=0)


# ---------------------------------------------------------------------------
# Storage ctx layout + helpers
# ---------------------------------------------------------------------------


def test_storage_layout_offsets():
    layout = storage_ctx_layout(4096, 256)
    assert layout.by_name["data"].offset == 0
    assert layout.by_name["action"].offset == 72
    assert layout.by_name["next_offset"].offset == 80
    assert layout.size == 104
    assert layout.by_name["data"].region_size == 4096
    assert layout.by_name["scratch"].writable


def test_layout_field_at_is_an_exact_access_lookup():
    layout = storage_ctx_layout(4096, 256)
    assert layout.field_at(72, 8) is layout.by_name["action"]
    assert layout.field_at(0, 8) is layout.by_name["data"]
    assert set(layout.by_access.values()) == set(layout.fields)
    for offset, size in ((72, 4), (76, 4), (73, 8), (104, 8), (-8, 8)):
        with pytest.raises(KeyError) as excinfo:
            layout.field_at(offset, size)
        assert excinfo.value.args == (
            f"no ctx field at offset {offset} size {size}",)


def test_storage_helpers_are_the_two_compaction_helpers():
    assert storage_helpers().names() == {"compact_emit": 18,
                                         "compact_drop": 19}


# ---------------------------------------------------------------------------
# BpfInstallation validation
# ---------------------------------------------------------------------------


def _verified_noop(block_size=4096, scratch_size=256):
    helpers = storage_helpers()
    program = Program(assemble("mov r0, 0\nexit"),
                      storage_ctx_layout(block_size, scratch_size))
    verify(program, helpers)
    return program, helpers


def test_install_requires_verified_program():
    helpers = storage_helpers()
    program = Program(assemble("mov r0, 0\nexit"), storage_ctx_layout())
    with pytest.raises(VerifierError):
        BpfInstallation(program, Hook.NVME, 4096, 256,
                        helpers)


def test_install_validates_block_size():
    program, helpers = _verified_noop()
    with pytest.raises(InvalidArgument):
        BpfInstallation(program, Hook.NVME, 1000, 256,
                        helpers)


def test_install_validates_layout_block_match():
    program, helpers = _verified_noop(block_size=4096)
    with pytest.raises(InvalidArgument, match="block"):
        BpfInstallation(program, Hook.NVME, 8192, 256,
                        helpers)


def test_install_validates_scratch_match():
    program, helpers = _verified_noop(scratch_size=128)
    with pytest.raises(InvalidArgument, match="scratch"):
        BpfInstallation(program, Hook.NVME, 4096, 256,
                        helpers)


def test_install_pads_default_args():
    program, helpers = _verified_noop()
    install = BpfInstallation(program, Hook.NVME, 4096, 256,
                              helpers, default_args=(1, 2))
    assert install.default_args == (1, 2, 0, 0)
    assert install.hook_kind == "nvme"


def test_install_rejects_too_many_args():
    program, helpers = _verified_noop()
    with pytest.raises(InvalidArgument):
        BpfInstallation(program, Hook.NVME, 4096, 256,
                        helpers, default_args=(1, 2, 3, 4, 5))
