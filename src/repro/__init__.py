"""BPF for storage: an exokernel-inspired approach — full reproduction.

A from-scratch Python implementation of the HotOS '21 paper's system on a
deterministic discrete-event simulator.  Subpackages:

* :mod:`repro.sim` — the simulation engine (processes, CPUs, queues, RNG).
* :mod:`repro.ebpf` — the eBPF subset: assembler, verifier, VM, maps.
* :mod:`repro.device` — block store, latency models, the NVMe device.
* :mod:`repro.kernel` — the simulated storage stack (Table 1 costs, extent
  FS, BIO, driver, io_uring) with one BPF chain slot.
* :mod:`repro.core` — the paper's contribution: install ioctl, chain
  engine, extent cache, accounting, the program library.
* :mod:`repro.structures` — on-disk B+-trees, LSM trees, WiscKey stores.
* :mod:`repro.workloads` — key distributions and YCSB mixes.
* :mod:`repro.bench` — one experiment per paper table/figure.

``python -m repro --help`` offers a command-line front end to the
experiments and program tooling.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
