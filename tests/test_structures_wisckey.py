"""Tests for the WiscKey-style store and its two-phase BPF program."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainutil import build_machine
from repro.core import Hook
from repro.core.library import wisckey_get_program
from repro.errors import InvalidArgument
from repro.obs import ObsSession
from repro.structures import FsBackend, MemoryBackend, WisckeyStore
from repro.structures.pages import PAGE_SIZE
from repro.structures.wisckey import MAX_PAYLOAD


def build_store(items, fanout=8):
    return WisckeyStore.build(MemoryBackend(), items, fanout=fanout)


# ---------------------------------------------------------------------------
# Reference implementation
# ---------------------------------------------------------------------------


def test_build_and_get():
    items = [(i * 3, f"v{i}".encode()) for i in range(200)]
    store = build_store(items)
    for key, payload in items[::13]:
        assert store.get(key) == payload
    assert store.get(1) is None
    assert store.get(10**9) is None


def test_hops_per_get_is_depth_plus_one():
    store = build_store([(i, b"x") for i in range(200)], fanout=4)
    assert store.hops_per_get() == store.tree.depth + 1


def test_payload_sizes_up_to_max():
    items = [(1, b""), (2, b"a" * MAX_PAYLOAD)]
    store = build_store(items)
    assert store.get(1) == b""
    assert store.get(2) == b"a" * MAX_PAYLOAD


def test_oversized_payload_rejected():
    with pytest.raises(InvalidArgument):
        build_store([(1, b"x" * (MAX_PAYLOAD + 1))])


def test_empty_store_rejected():
    with pytest.raises(InvalidArgument):
        build_store([])


def test_reopen_from_backend():
    backend = MemoryBackend()
    WisckeyStore.build(backend, [(5, b"five"), (7, b"seven")])
    store = WisckeyStore(backend)
    assert store.get(7) == b"seven"


def test_parse_record():
    store = build_store([(42, b"hello")])
    offset = store.tree.lookup(42)
    key, payload = WisckeyStore.parse_record(
        store.backend.read(offset, PAGE_SIZE))
    assert (key, payload) == (42, b"hello")


@settings(max_examples=20, deadline=None)
@given(st.dictionaries(st.integers(0, 2**40),
                       st.binary(min_size=0, max_size=64),
                       min_size=1, max_size=150),
       st.integers(3, 16))
def test_matches_dict_reference(entries, fanout):
    items = sorted(entries.items())
    store = build_store(items, fanout=fanout)
    for key, payload in items:
        assert store.get(key) == payload
    for probe in list(entries)[:5]:
        assert store.get(probe + 1) == entries.get(probe + 1)


# ---------------------------------------------------------------------------
# BPF chain get
# ---------------------------------------------------------------------------


def make_chain_machine(num_keys=400, fanout=8, hook=Hook.NVME):
    sim, kernel, bpf = build_machine()
    inode = kernel.fs.create("/wk")
    items = [(i * 2, f"payload-{i}".encode()) for i in range(num_keys)]
    store = WisckeyStore.build(FsBackend(kernel.fs, inode), items,
                               fanout=fanout)
    program = wisckey_get_program(fanout=fanout)
    bpf.verify_program(program)
    proc = kernel.spawn_process()

    def setup():
        fd = yield from kernel.sys_open(proc, "/wk")
        yield from bpf.install(proc, fd, program, hook=hook)
        return fd

    fd = kernel.run_syscall(setup())
    return sim, kernel, bpf, store, proc, fd


def chain_get(kernel, bpf, store, proc, fd, key):
    def workload():
        result = yield from bpf.read_chain_robust(
            proc, fd, store.tree.meta.root_offset, PAGE_SIZE, args=(key,))
        return result

    result = kernel.run_syscall(workload())
    if result.value2 != 1:
        return None, result
    _key, payload = WisckeyStore.parse_record(result.data)
    return payload, result


@pytest.mark.parametrize("hook", [Hook.NVME, Hook.SYSCALL])
def test_chain_get_hits(hook):
    sim, kernel, bpf, store, proc, fd = make_chain_machine(hook=hook)
    for probe in (0, 200, 798):
        payload, result = chain_get(kernel, bpf, store, proc, fd, probe)
        assert payload == f"payload-{probe // 2}".encode()
        assert result.hops == store.hops_per_get()
        assert result.value == len(payload)


def test_chain_get_miss_stops_at_leaf():
    sim, kernel, bpf, store, proc, fd = make_chain_machine()
    payload, result = chain_get(kernel, bpf, store, proc, fd, 3)
    assert payload is None
    assert result.hops == store.tree.depth  # no log hop on a miss


def test_chain_get_agrees_with_reference():
    sim, kernel, bpf, store, proc, fd = make_chain_machine(num_keys=150,
                                                           fanout=5)
    for probe in list(range(0, 300, 17)) + [10**9]:
        payload, _result = chain_get(kernel, bpf, store, proc, fd, probe)
        assert payload == store.get(probe)


def test_chain_log_hop_is_recycled():
    with ObsSession() as obs:
        sim, kernel, bpf, store, proc, fd = make_chain_machine()
    chain_get(kernel, bpf, store, proc, fd, 200)
    # Every hop after the first — including the log dereference — was a
    # recycled descriptor.
    assert obs.registry.get("nvme_commands_total").value(
        source="bpf-recycle") == store.hops_per_get() - 1
