"""Workload generators for the experiments.

* :mod:`~repro.workloads.keys` — the scrambled zipfian key distribution
  with the YCSB parameterisation.
* :mod:`~repro.workloads.ycsb` — YCSB-style mixed operation streams,
  including the exact 40 % read / 40 % update / 20 % insert zipf(0.7) mix
  the paper runs against TokuDB for its extent-stability measurement.
"""

from repro.workloads.keys import ZipfianGenerator
from repro.workloads.ycsb import Operation, OpType, YcsbWorkload, WORKLOAD_MIXES

__all__ = [
    "Operation",
    "OpType",
    "WORKLOAD_MIXES",
    "YcsbWorkload",
    "ZipfianGenerator",
]
