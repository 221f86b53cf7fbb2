"""Lease-based lock recovery on the shared-memory word seam.

A PE SIGKILLed while holding a stripe lock of :class:`ShmWords` must
not wedge the job: the lease words name the holder, liveness probing
detects the death, and :meth:`break_lease` repairs the stripe (force
release + re-evening any seqlock shadow the victim left odd).  These
tests exercise the protocol directly with real killed processes.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.mp.atomics import (
    DEFAULT_STRIPES,
    ShmWords,
    _preferred_context,
    pid_alive,
)
from repro.mp.errors import MpStallError

NWORDS = 64
LEASE_S = 0.15


@pytest.fixture()
def words():
    w = ShmWords(NWORDS, ctx=_preferred_context(), lease_s=LEASE_S,
                 stall_s=8.0)
    yield w
    w.close()
    w.unlink()


def _spawn(target, *args):
    ctx = _preferred_context()
    p = ctx.Process(target=target, args=args, daemon=True)
    p.start()
    return p


# ----------------------------------------------------------------------
# pid liveness
# ----------------------------------------------------------------------

def test_pid_alive_self_and_nonsense():
    assert pid_alive(os.getpid())
    assert not pid_alive(0)
    assert not pid_alive(-5)


@pytest.mark.mp
@pytest.mark.timeout(30)
def test_pid_alive_dead_child():
    p = _spawn(time.sleep, 0)
    p.join()
    assert not pid_alive(p.pid)


# ----------------------------------------------------------------------
# lease bookkeeping on the healthy path
# ----------------------------------------------------------------------

def test_lease_cleared_after_every_op(words):
    words.store(3, 7)
    words.fetch_add(3, 1)
    assert words.load(3) == 8
    for s in range(DEFAULT_STRIPES):
        pid, _ = words.holder(s)
        assert pid == 0  # no op leaves a lease behind


def test_break_lease_noop_when_free(words):
    assert words.break_lease(0) is None
    assert words.repairs_total() == 0


@pytest.mark.mp
@pytest.mark.timeout(30)
def test_child_writes_its_own_pid(words):
    """The lease holder must be the acquiring process, not the segment
    creator — a fork child inherits the object without repickling."""

    def hold_and_report(w, idx):
        # die_holding acquires, writes the lease, then SIGKILLs; the
        # parent inspects the lease it left behind.
        w.die_holding(idx, make_seq_odd=False)

    p = _spawn(hold_and_report, words, 1)
    p.join()
    pid, expiry = words.holder(words._stripe(1))
    assert pid == p.pid != os.getpid()
    assert expiry > 0


# ----------------------------------------------------------------------
# dead-holder recovery
# ----------------------------------------------------------------------

@pytest.mark.mp
@pytest.mark.timeout(60)
def test_op_recovers_from_dead_holder(words):
    """A plain atomic op on a stripe whose holder died mid-critical-
    section completes after the lease expires, and the repair is
    counted."""
    p = _spawn(ShmWords.die_holding, words, 5)
    p.join()
    assert p.exitcode != 0
    t0 = time.monotonic()
    words.store(5, 42)  # must break the dead lease, not wedge
    assert time.monotonic() - t0 < 5.0
    assert words.load(5) == 42
    assert words.repairs_total() == 1
    pid, _ = words.holder(words._stripe(5))
    assert pid == 0


@pytest.mark.mp
@pytest.mark.timeout(60)
def test_seqlock_repair_marks_suspects(words):
    """die_holding leaves the word's shadow sequence odd; the repair
    re-evens it and reports the word suspect, and load_seq completes."""
    p = _spawn(ShmWords.die_holding, words, 9)
    p.join()
    time.sleep(LEASE_S * 1.5)  # let the lease expire
    rec = words.break_lease(words._stripe(9))
    assert rec is not None
    assert rec.dead_pid == p.pid
    assert 9 in rec.suspect_words
    assert 9 in words.suspect_words
    assert words.load_seq(9) == 0  # readable again, data intact


@pytest.mark.mp
@pytest.mark.timeout(60)
def test_break_dead_leases_sweep(words):
    """One supervisor sweep repairs every stripe a dead PE held."""
    p = _spawn(ShmWords.die_holding, words, 2)
    p.join()
    time.sleep(LEASE_S * 1.5)
    broken = words.break_dead_leases()
    assert [b.stripe for b in broken] == [words._stripe(2)]
    assert words.repairs_total() == 1
    # idempotent: a second sweep finds nothing left to repair
    assert words.break_dead_leases() == []
    assert words.repairs_total() == 1


@pytest.mark.mp
@pytest.mark.timeout(60)
def test_live_holder_is_never_broken_then_stalls():
    """A *live* holder that never releases is not a lease-break case:
    the waiter must diagnose the stall instead of force-releasing."""
    w = ShmWords(NWORDS, ctx=_preferred_context(), lease_s=LEASE_S,
                 stall_s=1.0)
    try:
        def hold_forever(words, idx):
            words._acquire(words._stripe(idx))
            time.sleep(60)

        p = _spawn(hold_forever, w, 4)
        try:
            deadline = time.monotonic() + 10
            while w.holder(w._stripe(4))[0] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.005)
            with pytest.raises(MpStallError) as exc:
                w.load(4)
            assert str(p.pid) in str(exc.value)
            assert w.repairs_total() == 0
        finally:
            p.terminate()
            p.join()
    finally:
        w.close()
        w.unlink()
