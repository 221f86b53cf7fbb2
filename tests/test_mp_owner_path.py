"""The mp PE loop's owner path: the UTS word codec and the batched books.

Part one holds the mp UTS task body to the reference expansion: on every
node of whole trees, and on drawn nodes, it must yield exactly the words
``expand`` + ``encode_uts`` yield — same states, same depths, same order.

Part two runs forked ``_pe_loop``\\ s whose ``created`` / ``completed``
words are wrapped by a proxy that checks the termination invariant at
every flush.  The proxy also holds rank 0's first ``created`` flush — the
booking of the run's first share-out — for a while.  Booked in the right
place that costs only time; booked after the release, it lets the
thieves steal and complete at least two tasks the books hold only one
of.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.driver import (
    LAYOUTS,
    UTS_STATE,
    _bind_plain,
    _pe_loop,
    _uts_execute,
    encode_uts,
    uts_expected,
)
from repro.mp.fleet import Fleet
from repro.workloads.uts import (
    GeoShape,
    TreeType,
    UtsParams,
    expand,
    get_tree,
)

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


def _reference(params, state, depth, is_root):
    return [encode_uts(c, depth + 1, False)
            for c in expand(params, state, depth, is_root)]


# ----------------------------------------------------------------------
# the word codec against the reference expansion
# ----------------------------------------------------------------------

@pytest.mark.parametrize("tree", TREES)
def test_execute_matches_reference_on_every_node(tree):
    params = TREES[tree]
    execute = _uts_execute(params)
    stack = [(params.root(), 0, True)]
    nodes = 0
    while stack:
        state, depth, is_root = stack.pop()
        nodes += 1
        want = _reference(params, state, depth, is_root)
        assert list(execute(encode_uts(state, depth, is_root))) == want
        stack.extend((c, depth + 1, False)
                     for c in expand(params, state, depth, is_root))
    if tree == "bench_shape":
        assert nodes == 34_189              # perfbench's tree, node for node


STATES = st.binary(min_size=20, max_size=20)
DEPTHS = st.integers(0, 2**32 - 1)


@settings(max_examples=300, deadline=None)
@given(state=STATES, depth=DEPTHS, is_root=st.booleans())
def test_word_codec_round_trips(state, depth, is_root):
    words = encode_uts(state, depth, is_root)
    assert len(words) == 4 and all(0 <= w < 2**64 for w in words)
    assert UTS_STATE.pack(*words[:3]) == state
    assert words[3] & 0xFFFFFFFF == depth
    assert words[3] >> 32 == is_root


@settings(max_examples=300, deadline=None)
@given(tree=st.sampled_from(sorted(TREES)), state=STATES,
       depth=st.one_of(st.integers(0, 40), DEPTHS), is_root=st.booleans())
def test_execute_matches_reference_on_drawn_nodes(tree, state, depth,
                                                  is_root):
    params = TREES[tree]
    got = _uts_execute(params)(encode_uts(state, depth, is_root))
    assert list(got) == _reference(params, state, depth, is_root)


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
    wl = ("uts", params)
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
    assert sum(p["executed"] for p in reports) == nodes
    chk = 0
    for p in reports:
        chk ^= p["checksum"]
    assert chk == checksum
