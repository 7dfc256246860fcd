"""Test-side views of simulator state that no product path reads.

Each helper reads the object's own fields the way a test needs them, so
the classes under ``src/`` carry no accessor that only tests call.
"""

from repro.device.blockdev import SECTOR_SIZE


def written_image(device):
    """``{sector: bytes}`` for every sector of a `BlockDevice` holding
    data (a discarded or never-written sector is absent)."""
    image = {}
    for start, buffer in device._runs.items():
        for offset in range(0, len(buffer), SECTOR_SIZE):
            image[start + offset // SECTOR_SIZE] = \
                bytes(buffer[offset:offset + SECTOR_SIZE])
    return image


def written_sectors(device):
    """How many sectors of a `BlockDevice` hold data."""
    return sum(len(buffer) for buffer in device._runs.values()) \
        // SECTOR_SIZE


def commit_sync(journal):
    """Commit a `Journal`'s pending transactions straight to its media,
    untimed; returns how many were committed."""
    committed = len(journal._pending)
    if committed:
        frames = journal.encode_pending()
        for lba, frame in frames:
            journal.media.write(lba, frame)
        journal.note_committed(frames)
    return committed


def software_ns(cost):
    """Table 1's software layers of a `CostModel` summed (the kernel
    overhead of one plain read)."""
    return (cost.kernel_crossing_ns + cost.syscall_ns + cost.filesystem_ns
            + cost.bio_ns + cost.nvme_driver_ns)


def open_fds(proc):
    """How many descriptors a `Process` holds open."""
    return len(proc._fds)


def newest_entry(cache, inode):
    """An `NvmeExtentCache`'s newest snapshot of ``inode``, or None."""
    entries = cache._entries.get(inode.number)
    return entries[-1] if entries else None


def pending(accounting, owner):
    """Resubmissions `ChainAccounting` holds for ``owner`` since its last
    drain."""
    return accounting._pending.get(accounting.key_for(owner), 0)
