"""An LSM tree with immutable SSTables (the paper's motivating structure).

SSTables are immutable once written — the property §4 leans on for stable
extents — and are laid out as pages compatible with the BPF traversal
programs::

    block 0                meta page (entry count, root index offset,
                           key range, bloom filter location)
    blocks 1..D            data pages   (level 0): sorted (key, value)
    blocks D+1..D+I        index pages  (level 1): (first_key, data offset)
    next block             root index   (level 2): (first_key, index offset)
    remaining blocks       bloom filter bits

A ``get`` that misses the memtable costs one 3-hop dependent chain per
consulted SSTable (root index → index → data) — exactly the paper's
"auxiliary I/O" pattern.  Deletes write a tombstone value.

The tree keeps a write-ahead-free, flush-on-threshold memtable, an
overlapping L0, and leveled runs below it; compaction merges a level into
the next and *unlinks* the input tables, which is what fires the extent
unmap events the invalidation experiments measure.

Building a table hashes every key ``num_hashes`` times into its bloom
filter, which made :meth:`SsTable.build` the largest single host cost of
a compaction.  ``build`` therefore inserts its keys in one bulk pass,
:meth:`BloomFilter.add_many`, which hashes 4,096 keys per big-integer
operation and sets exactly the bits a key-at-a-time insert would (the
bits :meth:`BloomFilter.may_contain` tests): every table image is
unchanged.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import InvalidArgument
from repro.structures.pages import (
    PAGE_SIZE,
    SSTABLE_DATA_MAGIC,
    SSTABLE_INDEX_MAGIC,
    SSTABLE_META_MAGIC,
    FANOUT_MAX,
    FileBackend,
    FsBackend,
    decode_page,
    descend,
    encode_page,
)

__all__ = ["BloomFilter", "CompactionPlan", "LsmTree", "MergeSink", "SsTable",
           "TOMBSTONE"]

#: Reserved value marking a deletion.
TOMBSTONE = 0xFFFFFFFFFFFFFFFF

_META = struct.Struct("<IQQQQQQ")

_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Keys hashed per big-integer operation by :meth:`BloomFilter.add_many`.
_LANES = 4096

#: Capacity growth from one level of an :class:`LsmTree` to the next.
_LEVEL_RATIO = 4


def _require_u64(what: str, *numbers: int) -> None:
    """Pages hold u64 pairs: name what ``encode_page`` could not pack."""
    for number in numbers:
        if not 0 <= number <= _MASK64:
            raise InvalidArgument(f"{what} {number} is outside [0, 2^64)")


def _mix(key: int, salt: int) -> int:
    """SplitMix64-style deterministic hash (no Python hash() involved)."""
    x = (key + 0x9E3779B97F4A7C15 * (salt + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _mix_lanes(packed: int, salt: int, ones: int, low: int) -> int:
    """:func:`_mix` of many keys at once, one 128-bit lane per key.

    ``packed`` holds ``key mod 2^64`` in the low half of each lane and
    zero in the high half; ``ones`` has bit 0 of every lane set and
    ``low`` is the mask of every low half.  Each line is the scalar line
    above it, lane by lane:

    1. the add: the same 64-bit constant goes into every lane; a lane sum
       is below 2^65, so nothing carries into the neighbour, and ``& low``
       is the ``mod 2^64``;
    2. the xor-shifts: ``x >> s`` (``s`` <= 31) drops the low bits of the
       lane above into the *high* half of a lane only; ``& low`` removes
       them before the xor;
    3. the multiplies: a lane below 2^64 times a constant below 2^64 is
       below 2^128, so a product fills its own lane exactly; ``& low`` is
       the ``mod 2^64``;
    4. ``(key + c) mod 2^64 == ((key mod 2^64) + (c mod 2^64)) mod 2^64``,
       so a key outside u64, packed masked, hashes as ``_mix`` hashes it.
    """
    x = (packed + (0x9E3779B97F4A7C15 * (salt + 1) & _MASK64) * ones) & low
    x = ((x ^ (x >> 30 & low)) * 0xBF58476D1CE4E5B9) & low
    x = ((x ^ (x >> 27 & low)) * 0x94D049BB133111EB) & low
    return x ^ (x >> 31 & low)


class BloomFilter:
    """A classic k-hash bloom filter over u64 keys.

    :meth:`may_contain` is the definition of which bits a key sets:
    ``_mix(key, salt) % num_bits`` for each of ``num_hashes`` salts.
    :meth:`add_many` sets exactly those bits, hashed 4,096 keys at a
    time (a dozen big-integer operations per salt per chunk instead of a
    dozen 64-bit ones per salt per key).
    """

    def __init__(self, num_bits: int, num_hashes: int = 7):
        if num_bits < 8 or num_hashes < 1:
            raise InvalidArgument("bloom filter too small")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray((num_bits + 7) // 8)

    @classmethod
    def for_entries(cls, count: int, bits_per_key: int = 10) -> "BloomFilter":
        return cls(max(64, count * bits_per_key))

    def add_many(self, keys: Iterable[int]) -> None:
        """Add every key: exactly the bits :meth:`may_contain` tests.

        :func:`_mix_lanes` shows the hashes are ``_mix``'s; setting bits
        is an OR, so neither the order the positions are applied in nor
        what the filter already holds matters.
        """
        keys = list(keys)
        num_bits = self.num_bits
        # One binary digit per bit of the filter, folded in once at the
        # end: a read-modify-write of ``_bits`` per position would cost
        # as much again as the hashing.
        digits = bytearray(b"0") * num_bits
        for start in range(0, len(keys), _LANES):
            chunk = keys[start : start + _LANES]
            lanes = struct.Struct("<" + "Q8x" * len(chunk))
            ones = int.from_bytes(lanes.pack(*[1] * len(chunk)), "little")
            low = ones * _MASK64
            packed = int.from_bytes(
                lanes.pack(*[key & _MASK64 for key in chunk]), "little")
            for salt in range(self.num_hashes):
                mixed = _mix_lanes(packed, salt, ones, low)
                for lane in lanes.unpack(mixed.to_bytes(lanes.size,
                                                        "little")):
                    digits[lane % num_bits] = 0x31  # "1"
        digits.reverse()  # int() reads the most significant digit first
        bits = int(digits, 2) | int.from_bytes(self._bits, "little")
        self._bits[:] = bits.to_bytes(len(self._bits), "little")

    def may_contain(self, key: int) -> bool:
        for salt in range(self.num_hashes):
            bit = _mix(key, salt) % self.num_bits
            if not self._bits[bit // 8] & (1 << (bit % 8)):
                return False
        return True

    def to_bytes(self) -> bytes:
        return bytes(self._bits)

    @classmethod
    def from_bytes(cls, blob: bytes, num_bits: int,
                   num_hashes: int = 7) -> "BloomFilter":
        bloom = cls(num_bits, num_hashes)
        size = len(bloom._bits)
        if len(blob) < size:
            raise InvalidArgument(
                f"bloom filter of {num_bits} bits needs {size} bytes, "
                f"got {len(blob)}")
        bloom._bits[:] = blob[:size]  # the on-disk filter is page-padded
        return bloom


class SsTable:
    """One immutable sorted table."""

    def __init__(self, backend: FileBackend):
        self.backend = backend
        meta = backend.read(0, PAGE_SIZE)
        (magic, self.num_entries, self.root_index_offset, self.min_key,
         self.max_key, bloom_offset, bloom_bits) = _META.unpack_from(meta, 0)
        if magic != SSTABLE_META_MAGIC:
            raise InvalidArgument(f"not an SSTable (magic {magic:#x})")
        bloom_bytes = (bloom_bits + 7) // 8
        self.bloom = BloomFilter.from_bytes(
            backend.read(bloom_offset, bloom_bytes), bloom_bits)

    # ------------------------------------------------------------------

    @staticmethod
    def build(backend: FileBackend,
              items: List[Tuple[int, int]]) -> "SsTable":
        """Write sorted ``(key, value)`` items (values may be TOMBSTONE)."""
        if not items:
            raise InvalidArgument("cannot build an empty SSTable")
        for index in range(1, len(items)):
            if items[index - 1][0] >= items[index][0]:
                raise InvalidArgument("keys must be strictly increasing")
        # Refused before anything is written.  Keys are sorted, so the
        # two ends cover them all.
        _require_u64("key", items[0][0], items[-1][0])
        values = [value for _key, value in items]
        _require_u64("value", min(values), max(values))

        def chunk(seq, size):
            return [seq[i : i + size] for i in range(0, len(seq), size)]

        data_groups = chunk(items, FANOUT_MAX)
        data_offsets = [(1 + i) * PAGE_SIZE for i in range(len(data_groups))]
        index_entries = [
            (group[0][0], offset)
            for group, offset in zip(data_groups, data_offsets)
        ]
        index_groups = chunk(index_entries, FANOUT_MAX)
        if len(index_groups) > FANOUT_MAX:
            raise InvalidArgument("SSTable too large for a two-level index")
        first_index_block = 1 + len(data_groups)
        index_offsets = [
            (first_index_block + i) * PAGE_SIZE
            for i in range(len(index_groups))
        ]
        root_entries = [
            (group[0][0], offset)
            for group, offset in zip(index_groups, index_offsets)
        ]
        root_offset = (first_index_block + len(index_groups)) * PAGE_SIZE
        bloom = BloomFilter.for_entries(len(items))
        bloom.add_many([key for key, _value in items])
        bloom_offset = root_offset + PAGE_SIZE

        blob_len = (len(bloom.to_bytes()) + PAGE_SIZE - 1) // PAGE_SIZE \
            * PAGE_SIZE
        backend.preallocate(0, bloom_offset + blob_len)
        for group, offset in zip(data_groups, data_offsets):
            backend.write(offset, encode_page(SSTABLE_DATA_MAGIC, 0, group))
        for group, offset in zip(index_groups, index_offsets):
            backend.write(offset, encode_page(SSTABLE_INDEX_MAGIC, 1, group))
        backend.write(root_offset,
                      encode_page(SSTABLE_INDEX_MAGIC, 2, root_entries))
        blob = bloom.to_bytes()
        padded = blob + bytes(-len(blob) % PAGE_SIZE)
        backend.write(bloom_offset, padded)

        meta = bytearray(PAGE_SIZE)
        _META.pack_into(meta, 0, SSTABLE_META_MAGIC, len(items), root_offset,
                        items[0][0], items[-1][0], bloom_offset,
                        bloom.num_bits)
        backend.write(0, bytes(meta))
        return SsTable(backend)

    # ------------------------------------------------------------------

    def key_in_range(self, key: int) -> bool:
        return self.min_key <= key <= self.max_key

    def may_contain(self, key: int) -> bool:
        """The in-memory pre-check apps do before touching the device."""
        return self.key_in_range(key) and self.bloom.may_contain(key)

    def get(self, key: int) -> Optional[int]:
        """Reference lookup: root index -> index -> data (3 page reads).

        Returns the stored value (possibly TOMBSTONE) or None if absent.
        """
        return descend(self.backend, self.root_index_offset, 2, key)

    def entries(self) -> Iterator[Tuple[int, int]]:
        """All entries in key order (for compaction merges)."""
        offset = self.root_index_offset
        root = self.backend.read(offset, PAGE_SIZE)
        _m, _l, root_entries = decode_page(root)
        for _first, index_offset in root_entries:
            index_page = self.backend.read(index_offset, PAGE_SIZE)
            _m, _l, index_entries = decode_page(index_page)
            for _first2, data_offset in index_entries:
                data_page = self.backend.read(data_offset, PAGE_SIZE)
                _m, _l, data_entries = decode_page(data_page)
                for key, value in data_entries:
                    yield key, value


class MergeSink:
    """The k-way merge fold every compaction streams entries into.

    The offloaded merge feeds it from the kernel through the compact
    helpers, with the merge program choosing between :meth:`emit` and
    :meth:`drop`; :meth:`fold` makes the same choice on the host for the
    user-space merge and :meth:`LsmTree._merge_tables`.  Runs are
    streamed oldest first, so a plain upsert gives newer entries
    precedence, and ``drop`` retires a bottom-level tombstoned key.
    The running counters are what the merge program mirrors into its
    scratch area and returns through result/result2.
    """

    __slots__ = ("entries", "emitted", "dropped", "drop_tombstones")

    def __init__(self, drop_tombstones: bool = False):
        self.entries: Dict[int, int] = {}
        self.emitted = 0
        self.dropped = 0
        self.drop_tombstones = drop_tombstones

    def emit(self, key: int, value: int) -> int:
        self.entries[key] = value
        self.emitted += 1
        return self.emitted

    def drop(self, key: int) -> int:
        self.entries.pop(key, None)
        self.dropped += 1
        return self.dropped

    def fold(self, entries: Iterable[Tuple[int, int]]) -> None:
        """Stream one run's entries in: a tombstone is dropped when the
        sink drops tombstones, everything else emitted."""
        for key, value in entries:
            if self.drop_tombstones and value == TOMBSTONE:
                self.drop(key)
            else:
                self.emit(key, value)

    def items(self) -> List[Tuple[int, int]]:
        """The merged run in key order."""
        return sorted(self.entries.items())


class CompactionPlan:
    """Immutable snapshot of one ``level -> level + 1`` compaction.

    A plan separates *deciding* a compaction from *executing* it so the
    merge can run elsewhere (user space, a BPF chain, or a remote
    target) while the tree keeps serving reads — and keeps accepting
    memtable flushes: :meth:`LsmTree.apply_compaction` removes exactly
    the planned inputs, so tables that landed meanwhile survive.
    """

    __slots__ = ("level", "upper", "lower", "drop_tombstones")

    def __init__(self, level: int, upper: List[Tuple[str, "SsTable"]],
                 lower: List[Tuple[str, "SsTable"]],
                 drop_tombstones: bool):
        self.level = level
        #: Tables from ``levels[level]`` (the newer run being pushed down).
        self.upper = list(upper)
        #: Tables from ``levels[level + 1]`` (the older resident run).
        self.lower = list(lower)
        self.drop_tombstones = drop_tombstones

    @property
    def inputs(self) -> List[Tuple[str, "SsTable"]]:
        """All input tables (upper first — the unlink order)."""
        return self.upper + self.lower

    @property
    def merge_order(self) -> List[Tuple[str, "SsTable"]]:
        """Inputs ordered oldest first, so newer entries overwrite."""
        return self.lower + self.upper

    def input_paths(self) -> List[str]:
        """Paths oldest first (the order an offloaded merge scans)."""
        return [path for path, _table in self.merge_order]

    def __repr__(self) -> str:
        return (f"CompactionPlan(level={self.level}, "
                f"inputs={len(self.upper) + len(self.lower)}, "
                f"drop_tombstones={self.drop_tombstones})")


class LsmTree:
    """Memtable + L0 + leveled runs over files in the simulated FS."""

    def __init__(self, fs, directory: str, memtable_limit: int = 1024,
                 l0_limit: int = 4):
        if memtable_limit < 1:
            raise InvalidArgument("memtable_limit must be >= 1")
        self.fs = fs
        self.directory = directory.rstrip("/")
        if not fs.exists(self.directory):
            fs.mkdir(self.directory)
        self.memtable: Dict[int, int] = {}
        self.memtable_limit = memtable_limit
        self.l0_limit = l0_limit
        #: levels[0] is the overlapping L0 (newest last); deeper levels are
        #: single sorted runs (one table each, possibly large).
        self.levels: List[List[Tuple[str, SsTable]]] = [[]]
        self._sequence = 0
        # Statistics.
        self.flushes = 0
        self.compactions = 0
        self.tables_written = 0
        self.tables_deleted = 0

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------

    def put(self, key: int, value: int) -> None:
        if value == TOMBSTONE:
            raise InvalidArgument("value collides with the tombstone")
        _require_u64("key", key)
        _require_u64("value", value)
        self.memtable[key] = value
        if len(self.memtable) >= self.memtable_limit:
            self.flush()

    def delete(self, key: int) -> None:
        _require_u64("key", key)
        self.memtable[key] = TOMBSTONE
        if len(self.memtable) >= self.memtable_limit:
            self.flush()

    def flush(self) -> Optional[str]:
        """Write the memtable as a new L0 table; maybe compact."""
        if not self.memtable:
            return None
        items = sorted(self.memtable.items())
        self.memtable = {}
        path = self._new_table_path()
        table = self._write_table(path, items)
        self.levels[0].append((path, table))
        self.flushes += 1
        self._maybe_compact()
        return path

    def _new_table_path(self) -> str:
        self._sequence += 1
        return f"{self.directory}/sst-{self._sequence:06d}"

    def reserve_table_path(self) -> str:
        """Allocate a table path for an externally-written output table
        (the compaction engine writes through timed syscalls, then hands
        the finished table to :meth:`apply_compaction`)."""
        return self._new_table_path()

    def _write_table(self, path: str,
                     items: List[Tuple[int, int]]) -> SsTable:
        inode = self.fs.create(path)
        backend = FsBackend(self.fs, inode)
        table = SsTable.build(backend, items)
        self.tables_written += 1
        return table

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _level_capacity(self, level: int) -> int:
        """Max entries allowed in ``level`` (levels >= 1)."""
        base = self.memtable_limit * self.l0_limit
        return base * (_LEVEL_RATIO ** level)

    def _maybe_compact(self) -> None:
        if len(self.levels[0]) > self.l0_limit:
            self._compact(0)
        level = 1
        while level < len(self.levels):
            entries = sum(t.num_entries for _p, t in self.levels[level])
            if entries > self._level_capacity(level):
                self._compact(level)
            level += 1

    def _compact(self, level: int) -> None:
        """Merge ``level`` into ``level + 1`` and unlink the inputs."""
        plan = self.plan_compaction(level)
        if plan is None:
            return
        merged = self._merge_tables(
            [table for _path, table in plan.merge_order],
            drop_tombstones=plan.drop_tombstones,
        )
        self.apply_compaction(plan, merged)

    def plan_compaction(self, level: int) -> Optional["CompactionPlan"]:
        """Snapshot the inputs of a ``level -> level + 1`` compaction.

        Returns None when both levels are empty.  The tree itself is
        not modified (beyond growing the level list), so the caller can
        run the merge asynchronously — through chains or a remote
        target — and install the result with :meth:`apply_compaction`.

        Tombstones are dropped only when no level *below* the target
        holds data: a tombstone must shadow every older version of its
        key before it can be garbage-collected.  (Checking for live
        tables rather than "target is the last level" also collects
        tombstones when trailing levels exist but are empty.)
        """
        while len(self.levels) <= level + 1:
            self.levels.append([])
        upper = list(self.levels[level])
        lower = list(self.levels[level + 1])
        if not upper and not lower:
            return None
        drop = not any(self.levels[i]
                       for i in range(level + 2, len(self.levels)))
        return CompactionPlan(level, upper, lower, drop)

    def apply_compaction(self, plan: "CompactionPlan",
                         merged: List[Tuple[int, int]],
                         output: Optional[Tuple[str, SsTable]] = None
                         ) -> Optional[Tuple[str, SsTable]]:
        """Install the result of a planned (possibly offloaded) merge.

        ``merged`` is the merged item list, already tombstone-filtered
        when the plan says so.  ``output`` optionally names an output
        table the executor wrote itself (e.g. through timed syscalls);
        when None and ``merged`` is non-empty the table is written here.
        Exactly the planned inputs are removed from the two levels —
        tables flushed while the merge ran survive — and then unlinked,
        which fires the extent unmap/invalidation events concurrent
        chain gets recover from.
        """
        if output is None and merged:
            path = self._new_table_path()
            output = (path, self._write_table(path, merged))
        planned = {path for path, _table in plan.inputs}
        self.levels[plan.level] = [
            entry for entry in self.levels[plan.level]
            if entry[0] not in planned
        ]
        survivors = [
            entry for entry in self.levels[plan.level + 1]
            if entry[0] not in planned
        ]
        if output is not None:
            survivors.append(output)
        self.levels[plan.level + 1] = survivors
        for path, _table in plan.inputs:
            self.fs.unlink(path)  # fires the unmap/invalidation hook
            self.tables_deleted += 1
        self.compactions += 1
        return output

    def _merge_tables(self, tables: List[SsTable],
                      drop_tombstones: bool) -> List[Tuple[int, int]]:
        """K-way merge; later (newer) tables win on duplicate keys.

        ``tables`` must be ordered oldest first, which is how the level
        lists store them.
        """
        sink = MergeSink(drop_tombstones)
        for table in tables:
            sink.fold(table.entries())
        return sink.items()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def get(self, key: int) -> Optional[int]:
        """Point lookup through memtable, L0 (newest first), then levels."""
        if key in self.memtable:
            value = self.memtable[key]
            return None if value == TOMBSTONE else value
        for level in self.levels:
            for _path, table in reversed(level):
                if table.may_contain(key):
                    value = table.get(key)
                    if value is not None:
                        return None if value == TOMBSTONE else value
        return None

    def candidate_tables(self, key: int) -> List[Tuple[str, SsTable]]:
        """Tables (newest first) whose bloom/range admit ``key`` — the set a
        BPF-accelerated get must chain through."""
        return [(path, table)
                for level in self.levels
                for path, table in reversed(level)
                if table.may_contain(key)]

    def table_count(self) -> int:
        return sum(len(level) for level in self.levels)
