"""The race harness's owner side, driven with a fake queue.

``hammer`` and ``hammer_mp``'s owner both run this one loop; the call
sequence they share is pinned here once.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

import pytest

from repro.threads.protocol import race

pytestmark = pytest.mark.timeout(60)


class FakeQueue:
    """Shim-protocol shaped recorder: no atomics, no tasks stolen."""

    def __init__(self, ntasks: int) -> None:
        self.nfilled = ntasks
        self.cursor = 0
        self.owner_kept: list[int] = []
        self.calls: list[tuple] = []

    def release(self, count: int) -> None:
        self.calls.append(("release", count))
        count = min(count, self.nfilled - self.cursor)
        self.owner_kept.extend(range(self.cursor, self.cursor + count))
        self.cursor += count

    def acquire(self) -> None:
        self.calls.append(("acquire",))

    def drain(self) -> None:
        self.calls.append(("drain",))

    def steal(self):
        return SimpleNamespace(claimed=[])


def test_owner_sequence_the_five_copies_shared():
    queue = FakeQueue(10)
    loot, kept = race(queue, 0, 4, 2, pace_s=0)
    assert queue.calls == [
        ("release", 4), ("acquire",),
        ("release", 4), ("acquire",),
        ("release", 4),                 # acquires are spent: release only
        ("drain",),
    ]
    assert loot == []
    assert kept == list(range(10))


def test_empty_queue_only_drains():
    queue = FakeQueue(0)
    race(queue, 0, 1, 3, pace_s=0)
    assert queue.calls == [("drain",)]


def test_thieves_claim_and_stop_even_when_the_owner_raises():
    class Stealable(FakeQueue):
        def __init__(self):
            super().__init__(4)
            self.left = list(range(100))
            self.lock = threading.Lock()

        def steal(self):
            with self.lock:
                claimed, self.left = self.left[:1], self.left[1:]
            return SimpleNamespace(claimed=claimed)

        def drain(self):
            super().drain()
            raise RuntimeError("owner fell over")

    queue = Stealable()
    claims: list[int] = []
    before = threading.active_count()
    with pytest.raises(RuntimeError):
        race(queue, 3, 4, 0, pace_s=1e-3,
             on_claim=lambda idx, res: claims.extend(res.claimed))
    assert threading.active_count() == before       # thieves joined
    assert claims and len(set(claims)) == len(claims)
