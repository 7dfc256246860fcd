"""Per-generation device latency profiles (the devices of Figure 1).

The paper's Figure 1 breaks down 512 B random-read latency into device time
and kernel software time for four device generations.  The kernel software
cost is (nearly) constant, so the software *fraction* is set by the device
service latency.  Profile values are chosen so the reproduced fractions land
in the bands the paper reports:

========  ================  =========================  ==================
profile   paper's device    service latency (read)     software fraction
========  ================  =========================  ==================
HDD       Seagate Exos X16  4 ms                       ~0.1 %
NAND      TLC NAND SSD      80 µs                      ~4 %
NVM-1     Optane SSD 900P   20 µs (effective)          10–15 %
NVM-2     Optane P5800X     3.224 µs (Table 1)         ~50 %
========  ================  =========================  ==================

``parallelism`` bounds how many commands the device services concurrently,
which sets its IOPS ceiling (parallelism / latency); the P5800X prototype
ceiling of ~2.5 M IOPS is what caps the NVMe-hook speedup in Figure 3b at
about 2.5x.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import InvalidArgument

__all__ = [
    "DEVICE_PROFILES",
    "HDD",
    "LatencyModel",
    "NAND_SSD",
    "NVM_GEN1",
    "NVM_GEN2",
]


@dataclass(frozen=True)
class LatencyModel:
    """Service-time model for one device generation."""

    name: str
    read_ns: int
    write_ns: int
    #: Concurrent commands the device services internally.
    parallelism: int
    #: Uniform jitter applied to each service time (fraction of the mean).
    jitter: float = 0.02
    #: NVMe FLUSH service time (draining the volatile write cache to
    #: media); 0 derives ``2 * write_ns``, the usual cache-drain cost.
    flush_ns: int = 0

    def __post_init__(self):
        if self.read_ns <= 0 or self.write_ns <= 0:
            raise InvalidArgument("latencies must be positive")
        if self.parallelism < 1:
            raise InvalidArgument("parallelism must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise InvalidArgument("jitter must be in [0, 1)")
        if self.flush_ns < 0:
            raise InvalidArgument("flush_ns must be >= 0")

    def sample_read(self, rng: random.Random) -> int:
        return self._sample(self.read_ns, rng)

    def sample_write(self, rng: random.Random) -> int:
        return self._sample(self.write_ns, rng)

    def sample_flush(self, rng: random.Random) -> int:
        return self._sample(self.flush_ns or 2 * self.write_ns, rng)

    def _sample(self, mean: int, rng: random.Random) -> int:
        if self.jitter == 0.0:
            return mean
        spread = mean * self.jitter
        return max(1, int(mean + spread * (2.0 * rng.random() - 1.0)))

HDD = LatencyModel("HDD", read_ns=4_000_000, write_ns=4_000_000,
                   parallelism=1)
NAND_SSD = LatencyModel("NAND", read_ns=80_000, write_ns=90_000,
                        parallelism=16)
NVM_GEN1 = LatencyModel("NVM-1", read_ns=20_000, write_ns=20_000,
                        parallelism=8)
#: Table 1 measures the P5800X device portion of a 512 B read at 3224 ns.
NVM_GEN2 = LatencyModel("NVM-2", read_ns=3_224, write_ns=3_600,
                        parallelism=7)

DEVICE_PROFILES = {
    "hdd": HDD,
    "nand": NAND_SSD,
    "nvm1": NVM_GEN1,
    "nvm2": NVM_GEN2,
}
