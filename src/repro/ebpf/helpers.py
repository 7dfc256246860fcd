"""Helper-function registry shared by the verifier and the VM.

A helper is declared with a :class:`HelperSpec` describing how the verifier
must type-check each argument register (``r1``–``r5``) and what lands in
``r0``, plus a Python implementation the VM dispatches to.

Every argument is a ``SCALAR`` (any initialised integer; a pointer is
rejected, so no helper reads or writes program memory) and a helper
returns a ``SCALAR`` (r0 becomes an unknown integer) or nothing (``VOID``:
r0 becomes zero).  A chain keeps its state across hops in the scratch
region, not in helper-owned storage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.errors import BpfError

__all__ = ["ArgKind", "HelperRegistry", "HelperSpec", "RetKind"]


class ArgKind(enum.Enum):
    SCALAR = "scalar"


class RetKind(enum.Enum):
    SCALAR = "scalar"
    VOID = "void"


@dataclass(frozen=True)
class HelperSpec:
    """Static description of one helper function."""

    helper_id: int
    name: str
    args: "tuple[ArgKind, ...]" = ()
    ret: RetKind = RetKind.SCALAR

    def __post_init__(self):
        if len(self.args) > 5:
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

    def impl(self, helper_id: int) -> HelperImpl:
        if helper_id not in self.impls:
            raise BpfError(f"unknown helper id {helper_id}")
        return self.impls[helper_id]

    def names(self) -> Dict[str, int]:
        """Assembler-friendly mapping of helper name to id."""
        return {spec.name: spec.helper_id for spec in self.specs.values()}

    def extend(self, other: "HelperRegistry") -> "HelperRegistry":
        """A new registry containing this registry's helpers plus ``other``'s."""
        merged = HelperRegistry(dict(self.specs), dict(self.impls))
        for helper_id, spec in other.specs.items():
            if helper_id in merged.specs:
                raise BpfError(f"helper id collision on {helper_id}")
            merged.specs[helper_id] = spec
            merged.impls[helper_id] = other.impls[helper_id]
        return merged


def base_registry() -> HelperRegistry:
    """The generic helpers every program may use (``trace`` and ``ktime``).

    Storage-specific helpers (resubmit, return-buffer, ...) live in
    :mod:`repro.core.hooks` and extend this registry from id 16 up.
    """
    registry = HelperRegistry()

    def trace(vm, value: int) -> int:
        vm.trace_append(value & 0xFFFFFFFFFFFFFFFF)
        return 0

    registry.register(
        HelperSpec(1, "trace", (ArgKind.SCALAR,), RetKind.VOID), trace
    )

    def ktime(vm) -> int:
        return vm.env.now()

    registry.register(HelperSpec(7, "ktime", (), RetKind.SCALAR), ktime)

    return registry
