"""The mp PE loop's owner path: the UTS node form and the batched books.

Part one holds the UTS step, and both substrates' wrappers of it, to the
reference expansion: on every node of whole trees, and on drawn nodes of
drawn trees, it must yield exactly the ``(state, depth)`` nodes
``expand`` yields — same states, same depths, same order, with the root
the node at depth 0 — and so must the fabric task body's children,
decoded; a node must survive the trip through its 4-word shared record.

Part two runs forked ``_pe_loop``\\ s whose ``created`` / ``completed``
words are wrapped by a proxy that checks the termination invariant at
every flush.  The proxy also holds rank 0's first ``created`` flush — the
booking of the run's first share-out — for a while.  Booked in the right
place that costs only time; booked after the release, it lets the
thieves steal and complete at least two tasks the books hold only one
of.
"""

from __future__ import annotations

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.atomics import RecordCodec
from repro.mp.driver import (
    LAYOUTS,
    UTS_RECORD,
    WORKLOADS,
    _bind_plain,
    _fp_uts,
    _pe_loop,
    uts_expected,
)
from repro.mp.fleet import Fleet
from repro.runtime.registry import TaskContext, TaskRegistry
from repro.runtime.stats import mix64
from repro.workloads.uts import (
    GeoShape,
    TreeType,
    UtsParams,
    UtsWorkload,
    expand,
    get_tree,
)
from repro.workloads.uts.tree import uts_step
from repro.workloads.uts.workload import _NODE

#: The shape of perfbench's ``uts_fine`` / ``mp_uts`` tree (34,189 nodes).
BENCH_SHAPE = UtsParams(tree_type=TreeType.GEO, b0=5.5, gen_mx=10,
                        shape=GeoShape.LINEAR, root_seed=19)

TREES = {
    "test_small": get_tree("test_small"),
    "bench_shape": BENCH_SHAPE,
    "fixed": UtsParams(b0=2.0, gen_mx=7, shape=GeoShape.FIXED),
    "expdec": UtsParams(b0=3.0, gen_mx=6, shape=GeoShape.EXPDEC),
    "cyclic": UtsParams(b0=1.5, gen_mx=3, shape=GeoShape.CYCLIC),
    "bin": UtsParams(tree_type=TreeType.BIN, b0=16.0, q=0.12, m=8),
}


def _reference(params, state, depth):
    return [(c, depth + 1) for c in expand(params, state, depth, depth == 0)]


def _fabric_body(params):
    """The fabric's task body for ``params``, as a node step: the node
    packed into its payload, the children's payloads decoded."""
    registry = TaskRegistry()
    workload = UtsWorkload(registry, params)
    tc = TaskContext(0, 1)

    def step(node):
        state, depth = node
        out = workload._node(_NODE.pack(depth, state), tc)
        assert all(t.fn_id == workload.node_id for t in out.children)
        assert out.duration == workload.params.node_time
        return [(c, d) for d, c in (_NODE.unpack(t.payload)
                                    for t in out.children)]

    return step


# ----------------------------------------------------------------------
# the node form against the reference expansion
# ----------------------------------------------------------------------

@pytest.mark.parametrize("tree", TREES)
def test_execute_matches_reference_on_every_node(tree):
    params = TREES[tree]
    step, fabric = uts_step(params), _fabric_body(params)
    stack = [(params.root(), 0)]
    nodes = 0
    while stack:
        node = stack.pop()
        nodes += 1
        want = _reference(params, *node)
        assert list(step(node)) == want
        assert fabric(node) == want
        stack.extend(want)
    if tree == "bench_shape":
        assert nodes == 34_189              # perfbench's tree, node for node


STATES = st.binary(min_size=20, max_size=20)
DEPTHS = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(state=STATES, depth=DEPTHS)
def test_node_round_trips_through_its_record(state, depth):
    codec = RecordCodec(4, UTS_RECORD)
    record = codec.encode([(state, depth)])
    assert len(record) == 32 and record[:20] == state
    assert codec.decode(record * 3) == [(state, depth)] * 3
    # The record's words are the state's three words and the depth, so
    # the fingerprint is the word form's: the checksum pins still hold.
    words = RecordCodec(4).decode(record)[0]
    assert words[3] == depth
    assert _fp_uts((state, depth)) == mix64(words[0] ^ words[2])


#: Drawn trees: every GEO shape with a drawn ``b0`` and ``gen_mx``, and
#: BIN trees at or below criticality (``q * m < 1``).
GEO_TREES = st.builds(UtsParams, b0=st.floats(0.05, 40.0),
                      gen_mx=st.integers(1, 30), shape=st.sampled_from(GeoShape))
BIN_TREES = st.builds(
    lambda b0, m, qm: UtsParams(tree_type=TreeType.BIN, b0=b0, m=m, q=qm / m),
    b0=st.floats(1.0, 64.0), m=st.integers(1, 16), qm=st.floats(0.0, 0.999))


@settings(max_examples=300, deadline=None)
@given(params=st.one_of(st.sampled_from([TREES[t] for t in sorted(TREES)]),
                        GEO_TREES, BIN_TREES),
       state=STATES, depth=st.one_of(st.integers(0, 40), DEPTHS))
def test_execute_matches_reference_on_drawn_nodes(params, state, depth):
    want = _reference(params, state, depth)
    assert list(uts_step(params)((state, depth))) == want
    fabric = _fabric_body(params)
    if depth < 2**32 - 1 or not want:
        assert fabric((state, depth)) == want
    else:                               # a child's depth overflows its u32
        with pytest.raises(struct.error):
            fabric((state, depth))


# ----------------------------------------------------------------------
# the books: completed <= created at every flush
# ----------------------------------------------------------------------

#: How long rank 0's first ``created`` flush is held before it lands.
BOOKING_STALL_S = 0.1


class _Books:
    """The PE's heap with its two books wrapped."""

    def __init__(self, heap, ctl, stall_s: float) -> None:
        self._heap = heap
        self._created = heap.ref(ctl["created"])
        self._wrapped = {ctl["created"]: _Created(self._created, stall_s),
                         ctl["completed"]: _Completed(
                             heap.ref(ctl["completed"]), self._created)}

    def __getattr__(self, name):
        return getattr(self._heap, name)

    def ref(self, addr):
        return self._wrapped.get(addr) or self._heap.ref(addr)


class _Created:
    def __init__(self, word, stall_s: float) -> None:
        self._word = word
        self._stall_s = stall_s
        self.load_seq = word.load_seq

    def fetch_add(self, delta: int) -> int:
        time.sleep(self._stall_s)
        self._stall_s = 0.0
        return self._word.fetch_add(delta)


class _Completed:
    def __init__(self, word, created) -> None:
        self._word = word
        self._created = created
        self.load_seq = word.load_seq

    def fetch_add(self, delta: int) -> int:
        old = self._word.fetch_add(delta)
        # ``created`` only grows, so reading it after the add can hide an
        # overdraft but never invent one.
        booked = self._created.load()
        if old + delta > booked:
            raise AssertionError(
                f"completed {old + delta} > created {booked} after a flush")
        return old


def _checked_pe_loop(rank, heap, layouts, ctl, *args):
    books = _Books(heap, ctl, BOOKING_STALL_S if rank == 0 else 0.0)
    return _pe_loop(rank, books, layouts, ctl, *args)


@pytest.mark.mp
@pytest.mark.timeout(120)
@pytest.mark.parametrize("impl", ["sws", "sdc"])
@pytest.mark.parametrize("npes", [2, 3])
def test_books_never_overdraw_at_a_flush(impl, npes):
    params = get_tree("test_small")
    wl = WORKLOADS["uts"](0, params)
    with Fleet("books", LAYOUTS[impl], npes, 1 << 12, 4,
               ctl=("created", "completed")) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        heap.ref(ctl["created"]).store(1)
        for r in range(npes):
            fleet.spawn(r, _checked_pe_loop, fleet.layouts, ctl, 7, True,
                        _bind_plain, wl)
        fleet.collect(90)
        books = (heap.ref(ctl["created"]).load(),
                 heap.ref(ctl["completed"]).load())
        reports = [payload for _, payload in fleet.reports]
    nodes, checksum = uts_expected(params)
    assert books == (nodes, nodes)
    assert sum(stats.tasks_executed for stats, _, _ in reports) == nodes
    chk = 0
    for _, pe_checksum, _ in reports:
        chk ^= pe_checksum
    assert chk == checksum
