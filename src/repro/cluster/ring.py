"""Consistent-hash ring: deterministic key -> shard placement.

:class:`HashRing` places ``vnodes`` virtual points per shard on a
64-bit ring and routes each key to the first point clockwise from the
key's own hash.  Hashes come from BLAKE2b, **never** Python's builtin
``hash()``: the builtin is salted per process (``PYTHONHASHSEED``), and
the whole simulation contract is that placement — and therefore every
replicated byte and every trace — is a pure function of the
configuration.

With ``vnodes`` points per shard the load imbalance across shards is
small (tested: under 2x for 8 shards at 64 vnodes over 10k keys), and
adding a shard moves only ~1/N of the keyspace — the classic
consistent-hashing argument, which is why real disaggregated stores
(and this cluster) route this way instead of ``key % N``.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import List, Sequence, Tuple

from repro.errors import InvalidArgument

__all__ = ["HashRing", "stable_hash"]


def stable_hash(data: bytes) -> int:
    """A process-independent 64-bit hash (BLAKE2b, truncated)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


class HashRing:
    """Consistent-hash routing of integer keys onto shard ids."""

    def __init__(self, shards: Sequence[int], vnodes: int = 64):
        if not shards:
            raise InvalidArgument("ring needs at least one shard")
        if vnodes < 1:
            raise InvalidArgument("vnodes must be >= 1")
        self.shards = list(shards)
        self.vnodes = vnodes
        points: List[Tuple[int, int]] = []
        for shard in self.shards:
            for replica in range(vnodes):
                point = stable_hash(f"shard-{shard}/{replica}".encode())
                points.append((point, shard))
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def shard_for(self, key: int) -> int:
        """The shard owning ``key``: first ring point clockwise."""
        where = bisect.bisect_right(self._hashes,
                                    stable_hash(f"key-{key}".encode()))
        if where == len(self._points):
            where = 0  # wrap past the top of the ring
        return self._points[where][1]
