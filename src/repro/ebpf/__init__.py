"""A from-scratch eBPF-subset virtual machine.

This package reproduces the part of Linux eBPF the paper's safety argument
rests on: a register machine with a *static verifier* that proves memory
safety and termination before a program may be attached to a kernel hook (and
hands what it proved to the block tier, which drops the run-time checks the
proof covers), an interpreter that keeps every check, and helper functions.
A chained program keeps its state across hops in the chain's scratch
region, not in maps.

Layout:

* :mod:`~repro.ebpf.isa` — instruction set and encoding.
* :mod:`~repro.ebpf.assembler` — two-pass textual assembler with labels.
* :mod:`~repro.ebpf.program` — program container plus context layout.
* :mod:`~repro.ebpf.verifier` — abstract-interpretation verifier; emits the
  per-instruction ``Proof``.
* :mod:`~repro.ebpf.vm` — interpreter ("interp") and whole-program block
  compiler ("block", the JIT stand-in: one generated function per program)
  execution engines.
* :mod:`~repro.ebpf.helpers` — helper-function registry.
* :mod:`~repro.ebpf.builder` — a small Python DSL for emitting programs.
"""

from repro.ebpf.assembler import assemble
from repro.ebpf.builder import ProgramBuilder
from repro.ebpf.helpers import HelperRegistry, HelperSpec
from repro.ebpf.isa import Instruction
from repro.ebpf.program import CtxField, CtxLayout, FieldKind, Program
from repro.ebpf.verifier import Verifier, verify
from repro.ebpf.vm import ExecutionResult, Vm

__all__ = [
    "CtxField",
    "CtxLayout",
    "ExecutionResult",
    "FieldKind",
    "HelperRegistry",
    "HelperSpec",
    "Instruction",
    "Program",
    "ProgramBuilder",
    "Verifier",
    "Vm",
    "assemble",
    "verify",
]
