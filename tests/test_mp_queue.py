"""SWS / SDC stealval queues across real OS processes.

The sequential half mirrors tests/test_threads.py's TestThreadQueue —
the same queue classes, there raced by threads of one process — plus
the multi-word task payloads only the mp backend needs.  The hammer half races thief
*processes* against a releasing/acquiring owner and asserts exact task
conservation, the invariant the whole reproduction hangs on.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro.core.damping import DampingTracker, TargetMode
from repro.core.results import StealStatus
from repro.core.stealval import StealValEpoch
from repro.mp.heap import MpHeap
from repro.mp.queue import (
    LAYOUTS,
    SdcQueueLayout,
    SwsQueueLayout,
    hammer_mp,
)

pytestmark = [pytest.mark.mp, pytest.mark.timeout(120)]


@pytest.fixture
def heap():
    h = MpHeap()
    yield h
    h.close()
    h.unlink()


def _sws(heap, tasks, capacity=None, words_per_task=1):
    layout = SwsQueueLayout.reserve(
        heap, "q", capacity or len(tasks), words_per_task=words_per_task
    )
    heap.freeze()
    queue = layout.owner(heap)
    queue.push_all(tasks)
    return layout, queue


class TestMpSwsQueue:
    def test_sequential_release_steal(self, heap):
        layout, q = _sws(heap, list(range(20)))
        q.release(16)
        thief = layout.thief(heap)
        assert thief.steal().claimed == list(range(8))
        assert thief.steal().claimed == list(range(8, 12))

    def test_steal_on_locked_word_aborts(self, heap):
        layout, q = _sws(heap, list(range(10)))
        q.release(8)
        q.stealval.store(StealValEpoch.locked_word())
        assert layout.thief(heap).steal().aborted_locked

    def test_empty_steal(self, heap):
        layout, q = _sws(heap, [1, 2, 3])
        assert layout.thief(heap).steal().empty

    def test_acquire_takes_top_half(self, heap):
        _, q = _sws(heap, list(range(16)))
        q.release(8)
        assert q.acquire() == [4, 5, 6, 7]

    def test_multiword_tasks_roundtrip(self, heap):
        tasks = [(i, i * 31, i * 997, 1) for i in range(12)]
        layout, q = _sws(heap, tasks, words_per_task=4)
        q.release(8)
        thief = layout.thief(heap)
        assert thief.steal().claimed == tasks[:4]
        q.drain()
        kept = q.take_kept()
        assert sorted(kept + tasks[:4]) == sorted(tasks)

    def test_capacity_must_fit_tail_field(self, heap):
        with pytest.raises(ValueError):
            SwsQueueLayout.reserve(heap, "big", capacity=1 << 19)

    def test_push_respects_capacity(self, heap):
        layout, q = _sws(heap, list(range(4)), capacity=4)
        assert q.push_all([99]) == 0
        assert q.nfilled == 4


class TestMpSdcQueue:
    def test_sequential_release_steal_half(self, heap):
        layout = SdcQueueLayout.reserve(heap, "q", capacity=16)
        heap.freeze()
        q = layout.owner(heap)
        q.push_all(range(16))
        q.release(8)
        thief = layout.thief(heap)
        assert thief.steal().claimed == [0, 1, 2, 3]
        assert thief.steal().claimed == [4, 5]
        q.drain()
        assert sorted(q.take_kept() + [0, 1, 2, 3, 4, 5]) == list(range(16))

    def test_locked_steal_gives_up(self, heap):
        layout = SdcQueueLayout.reserve(heap, "q", capacity=8)
        heap.freeze()
        q = layout.owner(heap)
        q.push_all(range(8))
        q.release(8)
        q.lock.store(1)  # wedge the lock: thief must bail, not hang
        thief = layout.thief(heap)
        thief.max_spins = 50
        res = thief.steal()
        assert not res.claimed
        assert res.lock_spins >= 50


@pytest.mark.parametrize("impl", ["sws", "sdc", "ff-mult"])
def test_building_an_owner_writes_no_shared_word(impl, heap):
    """A PE whose owner starts after its thieves did leaves their words
    as it found them: zero is every layout's empty, unlocked state, so
    the constructor stores nothing.  An owner that zeroed the SDC lock
    under a thief holding it let two parties into the critical section."""
    layout = LAYOUTS[impl].reserve(heap, "q", 8)
    heap.freeze()
    thief = layout.thief(heap)
    if impl == "sdc":
        assert thief.lock.compare_swap(0, 99) == 0
    else:
        assert thief.steal().empty
    before = bytes(heap.words._buf)
    layout.owner(heap)
    assert bytes(heap.words._buf) == before
    if impl == "sdc":
        assert thief.lock.load() == 99


class _SpyTracker(DampingTracker):
    """A damping tracker that logs which of its notes a thief called."""

    def __init__(self):
        super().__init__(2, threshold=0)
        self.notes: list[str] = []

    def note_failed_claim(self, target, view):
        self.notes.append("failed_claim")
        super().note_failed_claim(target, view)

    def note_probe(self, target, has_work):
        self.notes.append("probe")
        super().note_probe(target, has_work)

    def note_success(self, target):
        self.notes.append("success")
        super().note_success(target)


class TestTrySteal:
    """The PE driver's steal-result classification, one attempt at a
    time, on the thief views it runs (the driver asks no protocol name)."""

    def test_sws_locked_stealval_is_disabled_and_uncharged(self, heap):
        layout, q = _sws(heap, list(range(10)))
        q.release(8)
        q.stealval.store(StealValEpoch.locked_word())
        tracker = _SpyTracker()
        status, claimed = layout.thief(heap).try_steal(tracker, 0)
        assert (status, claimed) == (StealStatus.DISABLED, ())
        assert tracker.notes == []
        assert tracker.modes.get(0, TargetMode.FULL) is TargetMode.FULL

    def test_sws_empty_allotment_is_empty_and_noted(self, heap):
        layout, _ = _sws(heap, [1, 2, 3])
        tracker = _SpyTracker()
        status, claimed = layout.thief(heap).try_steal(tracker, 0)
        assert (status, claimed) == (StealStatus.EMPTY, ())
        assert tracker.notes == ["failed_claim"]
        assert tracker.modes.get(0, TargetMode.FULL) is TargetMode.EMPTY    # threshold 0: demoted

    def test_sws_empty_mode_probe_spends_no_fetch_add(self, heap):
        layout, q = _sws(heap, [1, 2, 3])
        thief = layout.thief(heap)
        tracker = _SpyTracker()
        thief.try_steal(tracker, 0)                   # demotes the victim
        word = q.stealval.load()
        assert thief.try_steal(tracker, 0) == (None, ())
        assert q.stealval.load() == word              # no claim issued
        assert tracker.notes == ["failed_claim", "probe"]
        assert tracker.stats.probe_aborts == 1

    def test_sws_success_is_stolen(self, heap):
        layout, q = _sws(heap, list(range(20)))
        q.release(16)
        tracker = _SpyTracker()
        status, claimed = layout.thief(heap).try_steal(tracker, 1)
        assert (status, claimed) == (StealStatus.STOLEN, list(range(8)))
        assert tracker.notes == ["success"]

    def test_sdc_lock_held_by_live_pid_aborts(self, heap):
        layout = SdcQueueLayout.reserve(heap, "q", capacity=8)
        heap.freeze()
        q = layout.owner(heap)
        q.push_all(range(8))
        q.release(8)
        q.lock.store(os.getpid())     # a live holder is never taken over
        thief = layout.thief(heap)
        thief.max_spins = 20
        tracker = _SpyTracker()
        assert thief.try_steal(tracker, 0) == (StealStatus.LOCKED_ABORT, ())
        assert thief.steal().lock_spins == 20
        assert tracker.notes == []

    def test_sdc_empty_section_is_empty(self, heap):
        layout = SdcQueueLayout.reserve(heap, "q", capacity=8)
        heap.freeze()
        layout.owner(heap).push_all(range(8))
        tracker = _SpyTracker()
        status, claimed = layout.thief(heap).try_steal(tracker, 0)
        assert (status, claimed) == (StealStatus.EMPTY, ())
        assert tracker.notes == []


@pytest.mark.parametrize("impl", ["sws", "sdc"])
@pytest.mark.parametrize("nthieves", [2, 4])
def test_hammer_mp_conserves_tasks(impl, nthieves):
    tasks = list(range(800))
    loot, kept = hammer_mp(tasks, nthieves=nthieves, releases=6,
                           acquires=2, impl=impl)
    stolen = [t for l in loot for t in l]
    counts = Counter(stolen + kept)
    assert all(v == 1 for v in counts.values()), "duplicated tasks"
    assert sorted(counts) == tasks, "lost tasks"


def test_hammer_mp_repeated_runs_stay_consistent():
    for _trial in range(2):
        tasks = list(range(500))
        loot, kept = hammer_mp(tasks, nthieves=3, releases=5, acquires=1)
        stolen = [t for l in loot for t in l]
        assert sorted(stolen + kept) == tasks
