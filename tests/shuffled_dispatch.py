"""Dispatch same-instant ready events in a seeded random order.

The engine fires the events in its immediate queue (everything made
ready at the current instant) in FIFO order.  A rule that must not
depend on that order, such as "a link delivers in send order", is
tested by replacing the queue with one whose ``popleft`` takes a random
ready event.  The heap, and with it the order of timed events, is left
alone.

Call :func:`shuffle_immediate` after building the world and before
``sim.run``: the run loop holds the queue it found when it started.
"""

import random
from collections import deque


class ShuffledDeque(deque):
    """A deque whose ``popleft`` removes a seeded-random element."""

    def __init__(self, items, seed: int):
        super().__init__(items)
        self.rng = random.Random(seed)

    def popleft(self):
        index = self.rng.randrange(len(self))
        item = self[index]
        del self[index]
        return item


def shuffle_immediate(sim, seed: int) -> None:
    """Swap ``sim``'s immediate queue for a shuffled one, keeping its events."""
    sim._immediate = ShuffledDeque(sim._immediate, seed)
