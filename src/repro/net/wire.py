"""Wire format: length-prefixed frames and one table of op messages.

Every message on a link is one *frame*::

    u32  length of the rest of the frame (big-endian, like every field)
    u16  magic (0xB7F5)
    u8   op — OP_* constant; replies set the high REPLY bit
    u8   status — STATUS_OK or an errno-style refusal code
    u64  request id — client-assigned, echoed in the reply, and the key
         for the target's idempotent dedup cache
    ...  op-specific body

Each op is declared exactly once, as a row of :data:`OPS`: its code, its
name, and the ordered fields of its request and reply bodies.  Both
body codecs (:func:`encode_body` / :func:`decode_body`), ``OP_NAMES``,
the target's dispatch (``StorageTarget._op_<name>``) and the client's
typed call (``RemoteClient.rpc``) are derived from that row.  Field
kinds:

=========== ========================================================
``u32``     big-endian unsigned scalar
``u64``     big-endian unsigned scalar
``bool``    one byte, 0 or 1
``str``     ``u16`` length + UTF-8
``bytes``   ``u32`` length + raw bytes
``program`` a ``bytes`` field holding instructions in the real 8-byte
            eBPF slot encoding of :mod:`repro.ebpf.isa` — what crosses
            the simulated wire is what would cross a real one, and the
            target must decode and re-verify it, trusting nothing about
            the client's toolchain
``u64s``    ``u8`` count + that many ``u64`` (masked to 64 bits)
``strs``    ``u16`` count + that many ``str``
``opt2``    a flags byte, then one ``u64`` per set flag: a pair of
            optional values (``None`` when absent, masked to 64 bits)
``rest``    UTF-8 to the end of the body (last field only)
=========== ========================================================

A run of adjacent scalar fields is packed and unpacked by one
precompiled :class:`struct.Struct`.

:func:`decode_body` is the one place untrusted bytes are parsed: a
truncated body, a bad length, invalid UTF-8 or bytes left over after
the last field raise :class:`~repro.errors.FramingError` (``EBADMSG``),
and a well-framed field whose value cannot be used (program bytes that
are not instructions) raises :class:`~repro.errors.InvalidArgument`
(``EINVAL``).

Error replies carry ``status != STATUS_OK`` and a UTF-8 reason as the
body (``EAGAIN`` carries :data:`QOS_REJECT` instead);
:func:`raise_for_status` turns them back into the typed errors of
:mod:`repro.errors` on the client side.
"""

from __future__ import annotations

import struct
from itertools import groupby
from typing import NamedTuple, Tuple

from repro.ebpf.isa import decode as decode_instructions
from repro.ebpf.isa import encode as encode_instructions
from repro.errors import (
    AssemblerError,
    FramingError,
    InvalidArgument,
    QosRejected,
    RemoteError,
    RemoteVerifierRejected,
)

MAGIC = 0xB7F5
_HEADER = struct.Struct("!HBBQ")
#: Bytes a frame adds around its body (length prefix + header).
FRAME_OVERHEAD = 4 + _HEADER.size

OP_READ = 1
OP_WRITE = 2
OP_INSTALL_CHAIN = 3
OP_EXEC_CHAIN = 4
#: Cluster KV ops (repro.cluster): PUT/GET are client-facing versioned
#: records; REPLICATE is the inter-target op a shard primary sends its
#: replica before acking a PUT (chain replication, one link long).
OP_PUT = 5
OP_GET = 6
OP_REPLICATE = 7
#: Server-side LSM compaction (repro.compact): the target merges the
#: named input runs into one output table in its own completion path.
OP_COMPACT = 8
#: High bit of the op byte marks a reply frame.
REPLY = 0x80

STATUS_OK = 0
#: Refusal codes, one per errno name the target can send back.
STATUS_NAMES = {0: "OK", 1: "EVERIFY", 2: "ENOENT", 3: "EINVAL", 4: "EIO",
                5: "ECHAINLIM", 6: "ENOPROG", 7: "EBADMSG", 8: "EREMOTE",
                9: "EAGAIN"}
_ERRNO_TO_STATUS = {name: code for code, name in STATUS_NAMES.items()}
#: Admission-control backpressure (typed EAGAIN, body carries retry-after).
STATUS_EAGAIN = _ERRNO_TO_STATUS["EAGAIN"]


def status_for_errno(errno_name: str) -> int:
    """The wire status for an errno name (EREMOTE for unknown ones)."""
    return _ERRNO_TO_STATUS.get(errno_name, _ERRNO_TO_STATUS["EREMOTE"])


# ---------------------------------------------------------------------------
# Field kinds
# ---------------------------------------------------------------------------

_U8 = struct.Struct("!B")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")
_MASK64 = 0xFFFFFFFFFFFFFFFF

#: Fixed-width kinds, by struct format character.  A run of adjacent
#: scalar fields is packed and unpacked by one precompiled Struct.
_SCALARS = {"u32": "I", "u64": "Q", "bool": "?"}

# Every other kind is a ``(put, get)`` pair: ``put(value) -> bytes`` and
# ``get(body, pos, out) -> new pos``, appending the decoded value to
# ``out``.


def _scalar_run(formats: str):
    """One step for a run of scalar fields: a single Struct, many values."""
    packer = struct.Struct("!" + formats)

    def get(body: bytes, pos: int, out: list) -> int:
        out.extend(packer.unpack_from(body, pos))
        return pos + packer.size

    return packer.pack, get, len(formats)


def _prefixed(prefix: struct.Struct, to_raw, from_raw):
    """A kind that is a length prefix + that many raw bytes."""

    def put(value) -> bytes:
        raw = to_raw(value)
        return prefix.pack(len(raw)) + raw

    def get(body: bytes, pos: int, out: list) -> int:
        (length,) = prefix.unpack_from(body, pos)
        start = pos + prefix.size
        if start + length > len(body):
            raise FramingError("truncated body")
        out.append(from_raw(body[start:start + length]))
        return start + length

    return put, get


def _decode_program(blob: bytes):
    try:
        return decode_instructions(blob)
    except AssemblerError as error:
        raise InvalidArgument(f"undecodable program: {error}") from None


def _same(raw: bytes) -> bytes:
    return raw


_put_str, _get_str = _prefixed(_U16, str.encode, bytes.decode)


def _put_u64s(values) -> bytes:
    return struct.pack(f"!B{len(values)}Q", len(values),
                       *(value & _MASK64 for value in values))


def _get_u64s(body: bytes, pos: int, out: list) -> int:
    (count,) = _U8.unpack_from(body, pos)
    out.append(struct.unpack_from(f"!{count}Q", body, pos + 1))
    return pos + 1 + 8 * count


def _put_strs(items) -> bytes:
    return _U16.pack(len(items)) + b"".join(map(_put_str, items))


def _get_strs(body: bytes, pos: int, out: list) -> int:
    (count,) = _U16.unpack_from(body, pos)
    pos += 2
    items = []
    for _ in range(count):
        pos = _get_str(body, pos, items)
    out.append(items)
    return pos


def _put_opt2(pair) -> bytes:
    present = [value & _MASK64 for value in pair if value is not None]
    flags = (0x1 if pair[0] is not None else 0) | \
            (0x2 if pair[1] is not None else 0)
    return struct.pack(f"!B{len(present)}Q", flags, *present)


def _get_opt2(body: bytes, pos: int, out: list) -> int:
    (flags,) = _U8.unpack_from(body, pos)
    pos += 1
    pair = []
    for bit in (0x1, 0x2):
        value = None
        if flags & bit:
            (value,) = _U64.unpack_from(body, pos)
            pos += 8
        pair.append(value)
    out.append(tuple(pair))
    return pos


def _get_rest(body: bytes, pos: int, out: list) -> int:
    out.append(body[pos:].decode("utf-8", "replace"))
    return len(body)


_KINDS = {
    "str": (_put_str, _get_str),
    "bytes": _prefixed(_U32, _same, _same),
    "program": _prefixed(_U32, encode_instructions, _decode_program),
    "u64s": (_put_u64s, _get_u64s),
    "strs": (_put_strs, _get_strs),
    "opt2": (_put_opt2, _get_opt2),
    "rest": (str.encode, _get_rest),
}


class Layout:
    """An ordered field list, ``"name:kind name:kind ..."``."""

    def __init__(self, spec: str):
        self.spec = spec
        kinds = [field.split(":")[1] for field in spec.split()]
        self.width = len(kinds)
        #: ``(put, get, values taken)`` per step, in wire order: one
        #: step per run of scalar fields, one per field of another kind.
        self.steps = []
        for scalar, run in groupby(kinds, _SCALARS.__contains__):
            if scalar:
                self.steps.append(
                    _scalar_run("".join(_SCALARS[kind] for kind in run)))
            else:
                self.steps.extend(_KINDS[kind] + (1,) for kind in run)

    def __repr__(self) -> str:
        return self.spec


def encode_body(layout: Layout, values) -> bytes:
    """Pack ``values`` (one per field of ``layout``) into a body."""
    if len(values) != layout.width:
        raise InvalidArgument(
            f"({layout}) takes {layout.width} fields, got {len(values)}")
    parts = []
    pos = 0
    try:
        for put, _get, taken in layout.steps:
            parts.append(put(*values[pos:pos + taken]))
            pos += taken
    except struct.error as error:
        raise InvalidArgument(
            f"field out of range for ({layout}): {error}") from None
    return b"".join(parts)


def decode_body(layout: Layout, body: bytes) -> tuple:
    """Unpack an untrusted ``body`` into one value per field.

    The body must be exactly the layout: short, over-long and
    non-UTF-8 input all raise :class:`FramingError`.
    """
    values = []
    pos = 0
    try:
        for _put, get, _taken in layout.steps:
            pos = get(body, pos, values)
    except struct.error:
        raise FramingError("truncated body") from None
    except UnicodeDecodeError:
        raise FramingError("string field is not UTF-8") from None
    if pos != len(body):
        raise FramingError(
            f"{len(body) - pos} trailing bytes after the last field")
    return tuple(values)


# ---------------------------------------------------------------------------
# The op table
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One wire op: its code, name, and request / reply body layouts."""

    code: int
    name: str
    request: Layout
    reply: Layout


#: Every op, declared once.  COMPACT's inputs are ordered oldest first
#: (the merge fold order).
OPS = {code: Op(code, name, Layout(request), Layout(reply))
       for code, name, request, reply in (
    (OP_READ, "read",
        "path:str offset:u64 length:u32", "data:bytes"),
    (OP_WRITE, "write",
        "path:str offset:u64 data:bytes", "written:u32"),
    (OP_INSTALL_CHAIN, "install_chain",
        "path:str hook:str block_size:u32 scratch_size:u32 "
        "program_name:str instructions:program", "chain_id:u32"),
    (OP_EXEC_CHAIN, "exec_chain",
        "chain_id:u32 offset:u64 length:u32 args:u64s",
        "chain_status:str hops:u32 values:opt2 data:bytes"),
    (OP_PUT, "put", "key:u64 value:u64", "version:u64"),
    (OP_GET, "get", "key:u64", "found:bool version:u64 value:u64"),
    (OP_REPLICATE, "replicate",
        "key:u64 version:u64 offset:u64 data:bytes", "version:u64"),
    (OP_COMPACT, "compact",
        "output_path:str drop_tombstones:bool input_paths:strs",
        "emitted:u64 dropped:u64 output_entries:u64 output_bytes:u64 "
        "chain_hops:u64"),
)}
OP_NAMES = {code: row.name for code, row in OPS.items()}

#: Body of an EAGAIN refusal (any op): retry-after, tenant, reason.
QOS_REJECT = Layout("retry_after_ns:u64 tenant:str reason:rest")


def raise_for_status(status: int, body: bytes) -> None:
    """Re-raise a refusal reply (raw body) as its typed client-side error."""
    if status == STATUS_OK:
        return
    if status == STATUS_EAGAIN:
        retry_after_ns, tenant, reason = decode_body(QOS_REJECT, body)
        raise QosRejected(reason, retry_after_ns=retry_after_ns,
                          tenant=tenant)
    errno_name = STATUS_NAMES.get(status, "EREMOTE")
    reason = body.decode("utf-8", "replace")
    if errno_name == "EVERIFY":
        raise RemoteVerifierRejected(errno_name, reason)
    raise RemoteError(errno_name, reason)


# ---------------------------------------------------------------------------
# Frame envelope
# ---------------------------------------------------------------------------


def encode_frame(op: int, request_id: int, body: bytes = b"",
                 status: int = STATUS_OK) -> bytes:
    header = _HEADER.pack(MAGIC, op, status, request_id)
    return _U32.pack(len(header) + len(body)) + header + body


def decode_frame(frame: bytes) -> Tuple[int, int, int, bytes]:
    """``frame`` -> (op, status, request_id, body); validates the envelope."""
    if len(frame) < FRAME_OVERHEAD:
        raise FramingError(f"short frame ({len(frame)} bytes)")
    (length,) = _U32.unpack_from(frame, 0)
    if length != len(frame) - 4:
        raise FramingError(
            f"length prefix {length} != {len(frame) - 4} payload bytes")
    magic, op, status, request_id = _HEADER.unpack_from(frame, 4)
    if magic != MAGIC:
        raise FramingError(f"bad magic 0x{magic:04x}")
    if op & ~REPLY not in OPS:
        raise FramingError(f"unknown op {op & ~REPLY}")
    return op, status, request_id, frame[FRAME_OVERHEAD:]
