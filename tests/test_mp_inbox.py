"""The serving inbox's ring arithmetic, driven directly.

``run_mp_serve`` sizes each inbox to at least twice the trace, so a
served run never wraps one; here a 5-record ring of 2-word records is
posted and drained across its end several times, and a post that does
not fit must raise and leave the ring as it was.
"""

from __future__ import annotations

import pytest

from repro.mp.errors import RingOverflowError
from repro.mp.heap import MpHeap
from repro.mp.inbox import ShmInbox
from repro.shmem.heap import SymmetricAllocator

pytestmark = [pytest.mark.mp, pytest.mark.serving]

CAPACITY = 5
WPT = 2


@pytest.fixture
def ring():
    heap = MpHeap()
    alloc = SymmetricAllocator(heap, "inbox")
    rd, wr = alloc.word("rd"), alloc.word("wr")
    buf = alloc.array("buf", CAPACITY * WPT)
    alloc.commit()
    heap.freeze()
    yield ShmInbox(heap, rd, wr, buf, CAPACITY, WPT), heap.ref(wr)
    heap.close()
    heap.unlink()


def _records(first: int, n: int) -> list[tuple[int, int]]:
    return [(seq, (seq * 0x9E3779B97F4A7C15) & (2**64 - 1))
            for seq in range(first, first + n)]


def test_posts_and_drains_across_the_wrap(ring):
    inbox, _ = ring
    assert inbox.drain() == [] and inbox.pending() == 0
    posted = 0
    # 24 records through 5 slots: batches start at every slot, and the
    # 4- and 5-record ones split across the ring end.
    for n in (3, 4, 5, 1, 5, 2, 4):
        batch = _records(posted, n)
        inbox.post(batch)
        posted += n
        assert inbox.pending() == n
        assert inbox.drain() == batch
        assert inbox.pending() == 0
    assert posted > 4 * CAPACITY


def test_two_posts_drain_as_one_batch_in_order(ring):
    inbox, _ = ring
    inbox.post(_records(0, 3))
    assert inbox.drain() == _records(0, 3)
    inbox.post(_records(3, 2))                # slots 3, 4
    inbox.post(_records(5, 3))                # slots 0, 1, 2
    assert inbox.pending() == 5
    assert inbox.drain() == _records(3, 5)


def test_overflowing_post_raises_and_leaves_the_ring(ring):
    inbox, wr = ring
    inbox.post(_records(0, 4))
    inbox.drain()
    inbox.post(_records(4, 3))
    before = wr.load()
    with pytest.raises(RingOverflowError):
        inbox.post(_records(7, 3))            # 3 held + 3 > 5
    assert wr.load() == before
    assert inbox.pending() == 3
    inbox.post(_records(7, 2))                # exactly full still fits
    assert inbox.drain() == _records(4, 5)
