"""Helper-function registry shared by the verifier and the VM.

A helper is declared with a :class:`HelperSpec` saying how many argument
registers (``r1``–``r5``) it reads, plus a Python implementation the VM
dispatches to.  Every argument must be an initialised integer (a pointer
is rejected, so no helper reads or writes program memory) and every
helper returns an integer in ``r0``.  A chain keeps its state across hops
in the scratch region, not in helper-owned storage.  Programs run against
one registry, :func:`repro.core.hooks.storage_helpers`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.errors import BpfError

__all__ = ["HelperRegistry", "HelperSpec"]


@dataclass(frozen=True)
class HelperSpec:
    """Static description of one helper function."""

    helper_id: int
    name: str
    nargs: int

    def __post_init__(self):
        if self.nargs > 5:
            raise BpfError(f"helper {self.name!r} takes too many args (max 5)")


# The VM passes itself plus the argument values.
HelperImpl = Callable[..., int]


@dataclass
class HelperRegistry:
    """Id- and name-addressable collection of helpers."""

    specs: Dict[int, HelperSpec] = field(default_factory=dict)
    impls: Dict[int, HelperImpl] = field(default_factory=dict)

    def register(self, spec: HelperSpec, impl: HelperImpl) -> HelperSpec:
        if spec.helper_id in self.specs:
            raise BpfError(f"duplicate helper id {spec.helper_id}")
        if any(existing.name == spec.name for existing in self.specs.values()):
            raise BpfError(f"duplicate helper name {spec.name!r}")
        self.specs[spec.helper_id] = spec
        self.impls[spec.helper_id] = impl
        return spec

    def spec(self, helper_id: int) -> HelperSpec:
        if helper_id not in self.specs:
            raise BpfError(f"unknown helper id {helper_id}")
        return self.specs[helper_id]

    def names(self) -> Dict[str, int]:
        """Assembler-friendly mapping of helper name to id."""
        return {spec.name: spec.helper_id for spec in self.specs.values()}
