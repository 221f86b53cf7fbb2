"""Race tests: the SWS protocol over real threads.

The threads backend's atomic words are the mp heap's shared-memory
words, used from the threads of one process; the first two classes
hammer them exactly as the thread thieves do.
"""

import threading
from collections import Counter

import pytest

from repro.core.stealval import StealValEpoch
from repro.mp.heap import MpHeap
from repro.shmem.heap import SymArray, SymWord
from repro.threads import hammer

#: Race tests must fail loudly, not hang the suite, when a thread wedges.
pytestmark = pytest.mark.timeout(120)

U64 = (1 << 64) - 1


@pytest.fixture
def heap():
    h = MpHeap()
    yield h
    h.close()
    h.unlink()


def _word(heap, value=0):
    heap.alloc_words("w", 1)
    heap.freeze()
    word = heap.ref(SymWord("w", 0))
    word.store(value)
    return word


def _array(heap, length, fill=0):
    heap.alloc_words("a", length)
    heap.freeze()
    arr = heap.slice(SymArray("a", 0, length))
    for i in range(length):
        arr[i].store(fill)
    return arr


class TestAtomicWord:
    def test_basic_ops(self, heap):
        w = _word(heap, 5)
        assert w.load() == 5
        assert w.fetch_add(3) == 5
        assert w.load() == 8
        assert w.swap(1) == 8
        assert w.compare_swap(1, 2) == 1
        assert w.compare_swap(99, 3) == 2
        assert w.load() == 2

    def test_wraps_u64(self, heap):
        w = _word(heap, U64)
        assert w.fetch_add(1) == U64
        assert w.load() == 0

    def test_concurrent_fetch_add_counts_exactly(self, heap):
        w = _word(heap)
        n_threads, per_thread = 8, 2000

        def worker():
            for _ in range(per_thread):
                w.fetch_add(1)

        ts = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert w.load() == n_threads * per_thread

    def test_concurrent_fetch_add_olds_unique(self, heap):
        w = _word(heap)
        olds, lock = [], threading.Lock()

        def worker():
            mine = [w.fetch_add(1) for _ in range(500)]
            with lock:
                olds.extend(mine)

        ts = [threading.Thread(target=worker) for _ in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert sorted(olds) == list(range(3000))


class TestAtomicArray:
    def test_indexing(self, heap):
        arr = _array(heap, 4, fill=9)
        assert len(arr) == 4
        assert arr[2].load() == 9
        arr[2].store(1)
        assert arr.snapshot() == [9, 9, 1, 9]

    def test_bad_length(self, heap):
        with pytest.raises(ValueError):
            heap.alloc_words("a", 0)


class TestThreadQueue:
    def test_sequential_release_steal(self, shim_queue):
        q = shim_queue("sws", range(20))
        q.release(16)
        r1 = q.steal()
        assert r1.claimed == list(range(8))
        r2 = q.steal()
        assert r2.claimed == list(range(8, 12))

    def test_steal_on_locked_word_aborts(self, shim_queue):
        q = shim_queue("sws", range(10))
        q.release(8)
        q.stealval.store(StealValEpoch.locked_word())
        assert q.steal().aborted_locked

    def test_empty_steal(self, shim_queue):
        q = shim_queue("sws", [1, 2, 3])
        assert q.steal().empty

    def test_acquire_takes_top_half(self, shim_queue):
        q = shim_queue("sws", range(16))
        q.release(8)
        taken = q.acquire()
        assert taken == [4, 5, 6, 7]


@pytest.mark.parametrize("nthieves", [2, 4, 8])
def test_hammer_conserves_tasks(nthieves):
    tasks = list(range(3000))
    loot, kept = hammer(tasks, nthieves=nthieves, releases=6, acquires=2)
    stolen = [t for l in loot for t in l]
    counts = Counter(stolen + kept)
    assert all(v == 1 for v in counts.values()), "duplicated tasks"
    assert sorted(counts) == tasks, "lost tasks"


def test_hammer_repeated_runs_stay_consistent():
    for trial in range(3):
        tasks = list(range(1500))
        loot, kept = hammer(tasks, nthieves=3, releases=5, acquires=1)
        stolen = [t for l in loot for t in l]
        assert sorted(stolen + kept) == tasks
