"""YCSB-style operation streams.

``WORKLOAD_MIXES`` includes the standard YCSB A/B/C mixes plus ``"paper"``,
the exact 40 % read / 40 % update / 20 % insert zipf(0.7) configuration the
paper ran for 24 hours against MariaDB/TokuDB to measure extent stability
(§4, Translation & Security).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import InvalidArgument
from repro.workloads.keys import ZipfianGenerator

__all__ = ["OpType", "Operation", "WORKLOAD_MIXES", "YcsbWorkload"]


class OpType(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"


@dataclass(frozen=True)
class Operation:
    op: OpType
    key: int
    value: int = 0
    scan_length: int = 0


#: (read, update, insert, scan) fractions.
WORKLOAD_MIXES: Dict[str, Dict[str, float]] = {
    "a": {"read": 0.5, "update": 0.5, "insert": 0.0, "scan": 0.0},
    "b": {"read": 0.95, "update": 0.05, "insert": 0.0, "scan": 0.0},
    "c": {"read": 1.0, "update": 0.0, "insert": 0.0, "scan": 0.0},
    "e": {"read": 0.0, "update": 0.0, "insert": 0.05, "scan": 0.95},
    #: The paper's TokuDB experiment: 40R/40U/20I, zipfian 0.7.
    "paper": {"read": 0.4, "update": 0.4, "insert": 0.2, "scan": 0.0},
}


class YcsbWorkload:
    """An endless operation stream over a growing keyspace."""

    def __init__(self, initial_keys: int, rng: random.Random,
                 mix: str = "paper", theta: float = 0.7,
                 scan_length: int = 16):
        if mix not in WORKLOAD_MIXES:
            raise InvalidArgument(f"unknown mix {mix!r}")
        if initial_keys < 1:
            raise InvalidArgument("initial_keys must be >= 1")
        self.mix = WORKLOAD_MIXES[mix]
        self.rng = rng
        self.scan_length = scan_length
        self.next_insert_key = initial_keys
        self.keys = ZipfianGenerator(initial_keys, rng, theta=theta)
        self.counts: Dict[OpType, int] = {op: 0 for op in OpType}

    def _draw_op(self) -> OpType:
        u = self.rng.random()
        acc = 0.0
        for name, fraction in self.mix.items():
            acc += fraction
            if u < acc:
                return OpType(name)
        return OpType.READ

    def next_operation(self) -> Operation:
        op = self._draw_op()
        self.counts[op] += 1
        if op is OpType.INSERT:
            key = self.next_insert_key
            self.next_insert_key += 1
            self.keys.grow(self.next_insert_key)
            return Operation(op, key, value=self.rng.getrandbits(32))
        key = self.keys.next_key()
        if op is OpType.UPDATE:
            return Operation(op, key, value=self.rng.getrandbits(32))
        if op is OpType.SCAN:
            return Operation(op, key, scan_length=self.scan_length)
        return Operation(op, key)

    def operations(self, count: int) -> Iterator[Operation]:
        for _ in range(count):
            yield self.next_operation()
