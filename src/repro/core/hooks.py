"""The storage BPF context struct, chain actions, and storage helpers.

The context a storage program receives (in ``r1``) mirrors XRP's
``struct bpf_xrp``: a pointer to the raw block buffer just fetched, its
length, the file offset it came from, how deep the chain is, a scratch area
that persists across chained hops, four install/user arguments, and output
fields through which the program requests its next action::

    offset  field         meaning
    ------  ------------  -------------------------------------------------
      0     data          pointer to the completed block buffer (read-only)
      8     data_len      buffer length in bytes
     16     file_offset   file offset this buffer was read from
     24     chain_depth   completed hops in this chain so far
     32     scratch       pointer to the persistent per-chain scratch area
     40     arg0..arg3    four u64 parameters set at install/issue time
     72     action        OUT: RETURN_BUFFER (0), RESUBMIT (1), RETURN_VALUE (2)
     80     next_offset   OUT: file offset to reissue when action=RESUBMIT
     88     result        OUT: scalar result when action=RETURN_VALUE
     96     result2       OUT: secondary scalar result

The layout is parameterised by the block size and scratch size fixed at
install time, so the verifier statically bounds every buffer access.
"""

from __future__ import annotations

import enum

from repro.ebpf.helpers import ArgKind, HelperRegistry, HelperSpec, RetKind
from repro.ebpf.program import CtxField, CtxLayout, FieldKind

__all__ = [
    "ACTION_RESUBMIT",
    "ACTION_RETURN_BUFFER",
    "ACTION_RETURN_VALUE",
    "CTX_ACTION",
    "CTX_ARG0",
    "CTX_CHAIN_DEPTH",
    "CTX_DATA",
    "CTX_DATA_LEN",
    "CTX_FILE_OFFSET",
    "CTX_NEXT_OFFSET",
    "CTX_RESULT",
    "CTX_RESULT2",
    "CTX_SCRATCH",
    "Hook",
    "storage_ctx_layout",
    "storage_helpers",
]

#: The program wants the (whole) fetched buffer returned to the application.
ACTION_RETURN_BUFFER = 0
#: Recycle the NVMe descriptor and reissue at ``next_offset`` (paper §4).
ACTION_RESUBMIT = 1
#: Complete with the scalar ``result``/``result2`` and no buffer (the
#: selection/projection/aggregation case of §4).
ACTION_RETURN_VALUE = 2
# Any other action ends the chain with ChainStatus.EINVAL.

# Field offsets (also usable from raw assembly).
CTX_DATA = 0
CTX_DATA_LEN = 8
CTX_FILE_OFFSET = 16
CTX_CHAIN_DEPTH = 24
CTX_SCRATCH = 32
CTX_ARG0 = 40
CTX_ARG1 = 48
CTX_ARG2 = 56
CTX_ARG3 = 64
CTX_ACTION = 72
CTX_NEXT_OFFSET = 80
CTX_RESULT = 88
CTX_RESULT2 = 96
CTX_SIZE = 104


class Hook(enum.Enum):
    """Where the function is attached (the two hooks of Figure 2)."""

    #: Re-dispatch from the syscall dispatch layer: saves boundary
    #: crossings and app-side processing, still pays fs + BIO per hop.
    SYSCALL = "syscall"
    #: Re-dispatch from the NVMe driver completion (interrupt) path: pays
    #: only driver + device per hop.
    NVME = "nvme"


def storage_ctx_layout(block_size: int = 4096,
                       scratch_size: int = 256) -> CtxLayout:
    """The context layout for a given block/scratch size."""
    return CtxLayout(
        [
            CtxField("data", CTX_DATA, 8, FieldKind.POINTER, region="data",
                     region_size=block_size),
            CtxField("data_len", CTX_DATA_LEN, 8),
            CtxField("file_offset", CTX_FILE_OFFSET, 8),
            CtxField("chain_depth", CTX_CHAIN_DEPTH, 8),
            CtxField("scratch", CTX_SCRATCH, 8, FieldKind.POINTER,
                     region="scratch", region_size=scratch_size,
                     writable=True),
            CtxField("arg0", CTX_ARG0, 8),
            CtxField("arg1", CTX_ARG1, 8),
            CtxField("arg2", CTX_ARG2, 8),
            CtxField("arg3", CTX_ARG3, 8),
            CtxField("action", CTX_ACTION, 8, writable=True),
            CtxField("next_offset", CTX_NEXT_OFFSET, 8, writable=True),
            CtxField("result", CTX_RESULT, 8, writable=True),
            CtxField("result2", CTX_RESULT2, 8, writable=True),
        ]
    )


def storage_helpers() -> HelperRegistry:
    """Base helpers plus the storage-specific ones (ids 16+).

    ``get_chain_budget`` lets a program learn how many further
    resubmissions the per-process bound still allows, so well-behaved
    programs can bail out gracefully before the kernel kills the chain.
    """
    from repro.ebpf.helpers import base_registry

    registry = base_registry()

    def get_chain_budget(vm) -> int:
        budget = getattr(vm, "chain_budget", None)
        return budget if budget is not None else 0

    registry.register(
        HelperSpec(16, "get_chain_budget", (), RetKind.SCALAR),
        get_chain_budget,
    )

    def trace_offset(vm, offset: int) -> int:
        vm.trace_append(offset & 0xFFFFFFFFFFFFFFFF)
        bus = getattr(vm.env, "trace_bus", None)
        if bus is not None and bus.enabled:
            from repro.obs import events as obs_events  # lazy: hot path
            bus.emit(obs_events.BPF_HELPER_TRACE, vm.env.now(),
                     offset=offset & 0xFFFFFFFFFFFFFFFF)
        return 0

    registry.register(
        HelperSpec(17, "trace_offset", (ArgKind.SCALAR,), RetKind.VOID),
        trace_offset,
    )

    # Compaction helpers (repro.compact).  A merge program streams the
    # entries of each scanned data page into a kernel-side merge sink
    # (``vm.compact_sink``, set by the CompactionEngine on the chain's
    # installation): ``compact_emit`` upserts a live entry, while
    # ``compact_drop`` retires a tombstoned key at the bottom level.
    # Both return the sink's running count so the program can surface
    # progress through result/result2 without the entries themselves
    # ever crossing the kernel boundary.

    def compact_emit(vm, key: int, value: int) -> int:
        sink = getattr(vm, "compact_sink", None)
        if sink is None:
            return 0
        return sink.emit(key & 0xFFFFFFFFFFFFFFFF,
                         value & 0xFFFFFFFFFFFFFFFF)

    registry.register(
        HelperSpec(18, "compact_emit", (ArgKind.SCALAR, ArgKind.SCALAR),
                   RetKind.SCALAR),
        compact_emit,
    )

    def compact_drop(vm, key: int) -> int:
        sink = getattr(vm, "compact_sink", None)
        if sink is None:
            return 0
        return sink.drop(key & 0xFFFFFFFFFFFFFFFF)

    registry.register(
        HelperSpec(19, "compact_drop", (ArgKind.SCALAR,), RetKind.SCALAR),
        compact_drop,
    )

    return registry
