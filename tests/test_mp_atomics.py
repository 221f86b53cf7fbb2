"""Cross-process atomics: the multiprocess substrate's word seam.

Mirrors tests/test_threads.py's atomic-word invariants, but the racers
are real OS processes forked over one anonymous shared mapping — no
GIL, genuine kernel preemption across address spaces.  The Hypothesis
properties stress the two contracts the stealval protocol leans on:

* racing ``fetch_add``\\ s sum exactly and hand out unique old values
  (the fused discover+claim can never double-issue a claim slot);
* claims racing an owner ``swap``-to-locked are exactly partitioned —
  every increment either lands in a published generation (the owner's
  closing swap accounts for it) or observes the locked sentinel and is
  obliterated by the republish.  Nothing is lost, nothing counted twice.
"""

from __future__ import annotations

import struct
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stealval import StealValEpoch
from repro.mp.atomics import WORD_BYTES, ShmWords, _preferred_context
from repro.mp.errors import MpStallError
from repro.mp.heap import MpHeap
from repro.mp.queue import LAYOUTS

pytestmark = [pytest.mark.mp, pytest.mark.timeout(120)]

U64 = (1 << 64) - 1


@pytest.fixture
def words():
    w = ShmWords(8)
    yield w
    w.close()
    w.unlink()


class TestShmWords:
    def test_basic_ops(self, words):
        words.store(0, 5)
        assert words.load(0) == 5
        assert words.fetch_add(0, 3) == 5
        assert words.load(0) == 8
        assert words.swap(0, 1) == 8
        assert words.compare_swap(0, 1, 2) == 1
        assert words.compare_swap(0, 99, 3) == 2
        assert words.load(0) == 2

    def test_starts_zeroed_and_wraps_u64(self, words):
        assert all(words.load(i) == 0 for i in range(words.nwords))
        words.store(1, U64)
        assert words.fetch_add(1, 1) == U64
        assert words.load(1) == 0

    def test_bounds_checked(self, words):
        with pytest.raises(IndexError):
            words.load(8)
        with pytest.raises(IndexError):
            words.store(-1, 0)
        with pytest.raises(ValueError):
            ShmWords(0)

    def test_ref_and_slice_views(self, words):
        ref = words.ref(3)
        ref.store(7)
        assert ref.fetch_add(1) == 7
        assert words.load(3) == 8
        sl = words.slice(2, 4)
        assert len(sl) == 4
        assert sl[1].load() == 8
        sl[0].store(6)
        assert sl.snapshot() == [6, 8, 0, 0]
        with pytest.raises(IndexError):
            sl[4]


def _child_store(words, index, value, outq):
    words.store(index, value)
    outq.put(words.load(index))


def test_child_process_sees_parent_writes():
    """A value stored by a child is visible to the parent and back."""
    ctx = _preferred_context()
    words = ShmWords(2, ctx=ctx)
    try:
        words.store(0, 41)
        outq = ctx.Queue()
        p = ctx.Process(target=_child_store, args=(words, 1, 99, outq),
                        daemon=True)
        p.start()
        assert outq.get(timeout=30) == 99
        p.join(timeout=30)
        assert words.load(0) == 41
        assert words.load(1) == 99
    finally:
        words.close()
        words.unlink()


# ----------------------------------------------------------------------
# Hypothesis stress: real processes racing the word API
# ----------------------------------------------------------------------

def _race_adder(words, nops, inc, outq):
    olds = [words.fetch_add(0, inc) for _ in range(nops)]
    outq.put(olds)


def _run_children(ctx, target, argss, timeout=60.0):
    """Start one child per args tuple; collect one queue item each."""
    outq = ctx.Queue()
    procs = [
        ctx.Process(target=target, args=(*args, outq), daemon=True)
        for args in argss
    ]
    for p in procs:
        p.start()
    try:
        results = [outq.get(timeout=timeout) for _ in procs]
    finally:
        for p in procs:
            p.join(timeout=timeout)
            if p.is_alive():
                p.terminate()
    return results


@settings(max_examples=5, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=4),
    nops=st.integers(min_value=1, max_value=120),
    inc=st.integers(min_value=1, max_value=1 << 20),
)
def test_racing_fetch_add_sums_exactly(nprocs, nops, inc):
    """N processes racing fetch_add: exact sum, unique claim slots."""
    ctx = _preferred_context()
    words = ShmWords(1, ctx=ctx)
    try:
        olds = _run_children(
            ctx, _race_adder, [(words, nops, inc)] * nprocs
        )
        total = nprocs * nops
        assert words.load(0) == total * inc
        # Every old value is a distinct multiple of inc: each racing
        # fetch_add claimed exactly one slot — the no-double-claim core
        # of the fused discover+claim.
        flat = sorted(v for o in olds for v in o)
        assert flat == [k * inc for k in range(total)]
    finally:
        words.close()
        words.unlink()


def _claim_racer(words, outq):
    """Fetch-add claim attempts until the stop word goes nonzero."""
    nclaims = 0
    naborts = 0
    while words.load(1) == 0:
        old = words.fetch_add(0, StealValEpoch.ASTEAL_UNIT)
        if StealValEpoch.unpack(old).locked:
            naborts += 1
        else:
            nclaims += 1
    outq.put((nclaims, naborts))


@settings(max_examples=4, deadline=None)
@given(
    nprocs=st.integers(min_value=2, max_value=3),
    generations=st.integers(min_value=3, max_value=20),
)
def test_claims_racing_owner_lock_partition_exactly(nprocs, generations):
    """Owner swap-to-locked vs racing claims: exact accounting.

    Every child fetch_add either lands in a published generation (the
    closing swap's asteals counts it) or observes the locked sentinel
    (the republish obliterates it, the child aborts).  Totals must
    match exactly — a lost or double-counted claim breaks the equality.
    """
    ctx = _preferred_context()
    words = ShmWords(2, ctx=ctx)  # word 0: stealval, word 1: stop flag
    try:
        words.store(0, StealValEpoch.locked_word())
        outq = ctx.Queue()
        procs = [
            ctx.Process(target=_claim_racer, args=(words, outq), daemon=True)
            for _ in range(nprocs)
        ]
        for p in procs:
            p.start()

        landed = 0
        try:
            for g in range(generations):
                words.store(0, StealValEpoch.pack(0, g % 2, 100, 0))
                time.sleep(1e-4)
                closed = StealValEpoch.unpack(
                    words.swap(0, StealValEpoch.locked_word())
                )
                assert not closed.locked
                assert closed.epoch == g % 2
                landed += closed.asteals
        finally:
            words.store(1, 1)  # release the racers even on failure

        results = [outq.get(timeout=60) for _ in procs]
        for p in procs:
            p.join(timeout=60)
            if p.is_alive():
                p.terminate()
                pytest.fail("claim racer failed to exit")
        claims = sum(r[0] for r in results)
        assert claims == landed
    finally:
        words.close()
        words.unlink()


# ----------------------------------------------------------------------
# Op classes: which word ops take a stripe lock
# ----------------------------------------------------------------------

class _CountingLock:
    """A stripe lock that counts its acquisitions into a shared tally."""

    def __init__(self, lock, tally: list) -> None:
        self._lock = lock
        self._tally = tally

    def acquire(self, *args, **kwargs):
        self._tally[0] += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()


#: Stripe acquisitions per thief attempt: (successful, empty).  SWS
#: locks its claiming and its completing ``fetch_add``; SDC its lock
#: CAS, its tail ``store`` and its unlocking ``store`` (its ``tail`` and
#: ``split`` reads take none); ff-mult only its tail ``store``.
_LOCKS_PER_STEAL = {"sws": (2, 1), "sdc": (3, 2), "ff-mult": (1, 0)}


@pytest.mark.parametrize("impl", sorted(LAYOUTS))
def test_locked_word_ops_per_steal_attempt(impl, monkeypatch):
    """RMWs and stores take a stripe lock, loads never do: one thief
    ``steal()`` that wins and one that finds the queue empty take the
    table's stripe acquisitions, and ``has_work()`` takes none.  An
    uncontended winning attempt never sleeps: the steal path is the
    protocol and nothing else."""
    heap = MpHeap()
    layout = LAYOUTS[impl].reserve(heap, "q", 40)
    heap.freeze()
    try:
        owner, thief = layout.owner(heap), layout.thief(heap)
        owner.push_all(range(40))
        owner.release(32)
        tally = [0]
        heap.words._locks = tuple(
            _CountingLock(lock, tally) for lock in heap.words._locks)

        def locks_taken(op):
            tally[0] = 0
            result = op()
            return tally[0], result

        for view in (owner, thief):
            assert locks_taken(view.has_work) == (0, True)
        slept = []
        with monkeypatch.context() as m:
            m.setattr(time, "sleep", slept.append)
            won, res = locks_taken(thief.steal)
        assert res.claimed
        assert slept == []
        while True:
            empty, res = locks_taken(thief.steal)
            if not res.claimed:
                break
        assert res.empty
        assert (won, empty) == _LOCKS_PER_STEAL[impl]
        for view in (owner, thief):
            assert locks_taken(view.has_work) == (0, False)
    finally:
        heap.close()
        heap.unlink()


# ----------------------------------------------------------------------
# Stall bounds: no wait on the word seam is unbounded
# ----------------------------------------------------------------------

def _hold_stripe(words, index, held):
    words._locks[words._stripe(index)].acquire()
    held.set()
    time.sleep(60)


@pytest.mark.timeout(60)
def test_live_holder_stalls_naming_the_stripe():
    """A stripe whose holder is alive but never releases it fails the
    next locked op on that stripe with an MpStallError naming the
    stripe, within ``stall_s`` plus slack."""
    ctx = _preferred_context()
    w = ShmWords(64, ctx=ctx, stall_s=1.0)
    try:
        held = ctx.Event()
        p = ctx.Process(target=_hold_stripe, args=(w, 4, held), daemon=True)
        p.start()
        try:
            assert held.wait(10)
            t0 = time.monotonic()
            with pytest.raises(MpStallError) as exc:
                w.fetch_add(4, 1)
            waited = time.monotonic() - t0
            assert exc.value.stripe == w._stripe(4)
            assert f"stripe={w._stripe(4)}" in str(exc.value)
            assert 0.9 <= waited < 1.0 + 2.0
            assert w.load(4) == 0  # a read takes no lock: it never waits
        finally:
            p.terminate()
            p.join()
    finally:
        w.close()
        w.unlink()


@pytest.mark.timeout(60)
def test_odd_sequence_read_stalls_naming_the_word():
    """A shadow sequence left odd (a writer that never finished) fails
    every read of that word with an MpStallError naming the word and
    its stripe after ``stall_s``, instead of spinning forever."""
    w = ShmWords(8, stall_s=0.5)
    try:
        w.store(3, 9)
        soff = w._seq_base + 3 * WORD_BYTES
        seq = struct.unpack_from("<Q", w._buf, soff)[0]
        struct.pack_into("<Q", w._buf, soff, seq + 1)
        for read in (lambda: w.load_seq(3), lambda: w.load(3),
                     w.ref(3).load):
            t0 = time.monotonic()
            with pytest.raises(MpStallError) as exc:
                read()
            assert 0.45 <= time.monotonic() - t0 < 0.5 + 2.0
            assert "word 3" in str(exc.value)
            assert exc.value.stripe == w._stripe(3)
        assert w.load(4) == 0  # the other words read as before
        struct.pack_into("<Q", w._buf, soff, seq + 2)
        assert w.load(3) == 9
    finally:
        w.close()
        w.unlink()
