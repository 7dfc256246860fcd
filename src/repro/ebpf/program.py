"""Program container and context layout descriptions.

A :class:`Program` bundles the instruction list with the *context layout* it
expects.  The context is the struct the kernel hands to the function in
``r1``; for the storage hooks it carries the block buffer pointer, buffer
length, the file offset of the completed block, a scratch-area pointer that
persists across chained resubmissions, and output fields the program writes
to request a resubmission or to select a result window (see
:mod:`repro.core.hooks`).

The verifier and VM both consume the layout: pointer-kind fields load as
bounded pointers into named memory regions, scalar fields load as integers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.errors import AssemblerError
from repro.ebpf.isa import Instruction, MAX_INSNS

if TYPE_CHECKING:
    from repro.ebpf.verifier import Proof

__all__ = ["CtxField", "CtxLayout", "FieldKind", "Program"]


class FieldKind(enum.Enum):
    """What a context field holds."""

    SCALAR = "scalar"
    #: Loads as a pointer into the named region (the region must be provided
    #: to the VM at run time, and its size declared in the field).
    POINTER = "pointer"


@dataclass(frozen=True)
class CtxField:
    """One field of the context struct.

    Pointer fields are 8 bytes and name the region they point into along with
    that region's size, so the verifier can bound accesses statically.
    """

    name: str
    offset: int
    size: int
    kind: FieldKind = FieldKind.SCALAR
    region: Optional[str] = None
    region_size: int = 0
    writable: bool = False

    def __post_init__(self):
        if self.size not in (1, 2, 4, 8):
            raise AssemblerError(f"ctx field {self.name!r} has bad size {self.size}")
        if self.kind is FieldKind.POINTER:
            if self.size != 8:
                raise AssemblerError(f"pointer field {self.name!r} must be 8 bytes")
            if not self.region or self.region_size <= 0:
                raise AssemblerError(
                    f"pointer field {self.name!r} needs region and region_size"
                )


class CtxLayout:
    """The set of fields of a context struct, with no overlaps."""

    def __init__(self, fields: Sequence[CtxField]):
        self.fields: List[CtxField] = sorted(fields, key=lambda f: f.offset)
        self.by_name: Dict[str, CtxField] = {}
        #: The one index of exact accesses: ``(offset, size)`` -> field.
        self.by_access: Dict[Tuple[int, int], CtxField] = {}
        covered_until = 0
        for ctx_field in self.fields:
            if ctx_field.name in self.by_name:
                raise AssemblerError(f"duplicate ctx field {ctx_field.name!r}")
            if ctx_field.offset < covered_until:
                raise AssemblerError(f"ctx field {ctx_field.name!r} overlaps")
            if ctx_field.offset % ctx_field.size != 0:
                raise AssemblerError(f"ctx field {ctx_field.name!r} misaligned")
            covered_until = ctx_field.offset + ctx_field.size
            self.by_name[ctx_field.name] = ctx_field
            self.by_access[ctx_field.offset, ctx_field.size] = ctx_field
        self.size = covered_until

    def field_at(self, offset: int, size: int) -> CtxField:
        """The field covering an exact (offset, size) access, or raise KeyError."""
        ctx_field = self.by_access.get((offset, size))
        if ctx_field is None:
            raise KeyError(f"no ctx field at offset {offset} size {size}")
        return ctx_field

    def offset_of(self, name: str) -> int:
        return self.by_name[name].offset


@dataclass
class Program:
    """A loadable program: instructions plus the context layout it expects."""

    instructions: List[Instruction]
    ctx_layout: CtxLayout
    name: str = "prog"
    #: Set by the verifier on success.
    verified: bool = field(default=False, compare=False)
    #: Attached by the verifier on success: what it established about each
    #: instruction, for which instructions and layout, against which
    #: environment.  ``verified`` is a flag anyone can set; this is the
    #: thing itself, and it says what it holds for.
    proof: Optional["Proof"] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.instructions:
            raise AssemblerError("empty program")
        if len(self.instructions) > MAX_INSNS:
            raise AssemblerError(
                f"program too large: {len(self.instructions)} > {MAX_INSNS} insns"
            )
        if self.instructions[-1].opcode not in ("exit", "ja"):
            raise AssemblerError("program must end in exit (or an unconditional jump)")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def verified_against(self) -> Optional[tuple]:
        """What the proof was made against besides the program itself (see
        :func:`repro.ebpf.verifier.proof_context`): a proof holds only for
        an environment that equals it.  None without a proof."""
        return self.proof.context if self.proof is not None else None
