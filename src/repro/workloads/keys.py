"""Key popularity: the scrambled zipfian distribution YCSB draws from.

The generator uses the standard YCSB/Gray et al. rejection-free
construction (precomputed harmonic constants), so ``theta=0.7`` here means
the same skew the paper's YCSB configuration means.
"""

from __future__ import annotations

import random

from repro.errors import InvalidArgument

__all__ = ["ZipfianGenerator"]


class ZipfianGenerator:
    """Zipf-distributed keys over [0, item_count) (YCSB construction).

    Popularity rank is scrambled by a multiplicative hash so that hot keys
    are spread across the keyspace rather than clustered at 0, matching
    YCSB's ScrambledZipfian behaviour.
    """

    def __init__(self, item_count: int, rng: random.Random,
                 theta: float = 0.99):
        if item_count < 1:
            raise InvalidArgument("item_count must be >= 1")
        if not 0.0 < theta < 1.0:
            raise InvalidArgument("theta must be in (0, 1)")
        self.rng = rng
        self.theta = theta
        self._set_count(item_count)

    def _set_count(self, item_count: int) -> None:
        self.item_count = item_count
        self._zetan = self._zeta(item_count, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        self._eta = (1 - (2.0 / item_count) ** (1 - self.theta)) / \
                    (1 - self._zeta2 / self._zetan)

    @staticmethod
    def _zeta(count: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, count + 1))

    def next_rank(self) -> int:
        """A popularity rank in [0, item_count); rank 0 is hottest."""
        u = self.rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count *
                   (self._eta * u - self._eta + 1) ** self._alpha)

    def next_key(self) -> int:
        rank = min(self.next_rank(), self.item_count - 1)
        return (rank * 0x9E3779B97F4A7C15 % (2**64)) % self.item_count

    def grow(self, new_count: int) -> None:
        """Extend the keyspace (YCSB does this as inserts land).

        Recomputing zeta exactly is O(n); use the incremental update.
        """
        if new_count < self.item_count:
            raise InvalidArgument("item_count cannot shrink")
        if new_count == self.item_count:
            return
        extra = sum(1.0 / (i ** self.theta)
                    for i in range(self.item_count + 1, new_count + 1))
        self._zetan += extra
        self.item_count = new_count
        self._eta = (1 - (2.0 / new_count) ** (1 - self.theta)) / \
                    (1 - self._zeta2 / self._zetan)
