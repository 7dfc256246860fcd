"""Storage device models.

* :mod:`~repro.device.blockdev` — the backing store: a sector-addressed,
  sparse in-memory block device.
* :mod:`~repro.device.latency` — per-generation service latency profiles for
  the four devices of the paper's Figure 1 (HDD, NAND SSD, first- and
  second-generation Optane).
* :mod:`~repro.device.nvme` — the NVMe device: submission/completion queues,
  bounded internal parallelism, interrupt delivery into the simulated kernel.
* :mod:`~repro.device.writecache` — the volatile write cache behind NVMe
  FLUSH/FUA semantics and power-loss injection.
"""

from repro.device.blockdev import BlockDevice
from repro.device.latency import (
    DEVICE_PROFILES,
    HDD,
    NAND_SSD,
    NVM_GEN1,
    NVM_GEN2,
    LatencyModel,
)
from repro.device.nvme import (
    NvmeCommand,
    NvmeDevice,
    STATUS_MEDIA_ERROR,
    STATUS_OK,
    STATUS_POWER_FAIL,
    STATUS_TIMEOUT,
)
from repro.device.writecache import CachedWrite, WriteCache

__all__ = [
    "BlockDevice",
    "CachedWrite",
    "DEVICE_PROFILES",
    "HDD",
    "LatencyModel",
    "NAND_SSD",
    "NVM_GEN1",
    "NVM_GEN2",
    "NvmeCommand",
    "NvmeDevice",
    "STATUS_MEDIA_ERROR",
    "STATUS_OK",
    "STATUS_POWER_FAIL",
    "STATUS_TIMEOUT",
    "WriteCache",
]
