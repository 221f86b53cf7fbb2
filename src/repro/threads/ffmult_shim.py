"""Fence-free multiplicity deque over real threads — the dup-race harness.

Counterpart of :class:`~repro.threads.queue_shim.ThreadSwsQueue` and
:class:`~repro.threads.sdc_shim.ThreadSdcQueue` for the ``ff-mult``
protocol: the substrate-independent core
(:class:`~repro.threads.protocol.FfMultShimCore`) bound to
:class:`~repro.threads.atomics.AtomicWord64` used as *plain* words — the
steal path performs no atomic read-modify-write at all, so genuine thread
preemption produces the races the protocol is designed to tolerate: two
thieves observing the same tail both take the same task.

The conservation contract under the hammer is therefore *at-least-once*
over the task **set**: the union of all thieves' loot and the owner's
leftovers covers every original task, each appearing one or more times —
duplicates legal, losses not.  :func:`hammer_ffmult` additionally returns
the per-index handout multiplicity so property tests can assert
``multiplicity >= 1`` everywhere and ``> 1`` only where a race happened.
"""

from __future__ import annotations

from collections import Counter

from .atomics import AtomicWord64
from .protocol import FfMultShimCore, race


class ThreadFfMultQueue(FfMultShimCore):
    """Owner-side fence-free multiplicity queue state over real words."""

    def __init__(self, tasks: list[int]) -> None:
        self.buffer = list(tasks)
        self.nfilled = len(self.buffer)
        self.tail = AtomicWord64(0)
        self.split = AtomicWord64(0)
        self._init_protocol()

    def _read_tasks(self, start: int, count: int) -> list[int]:
        return self.buffer[start : start + count]


def hammer_ffmult(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
) -> tuple[list[list[int]], list[int], Counter]:
    """Race harness mirroring :func:`repro.threads.queue_shim.hammer`.

    Returns ``(per-thief loot, owner-kept tasks, index multiplicity)``;
    the union of loot and kept must **cover** ``tasks`` (set equality),
    with duplicates allowed wherever the multiplicity counter exceeds 1.
    """
    # One counter per thief: ``c[k] += 1`` is not atomic across threads.
    handouts: list[Counter] = [Counter() for _ in range(nthieves)]
    loot, kept = race(
        ThreadFfMultQueue(tasks), nthieves,
        max(1, len(tasks) // releases), acquires,
        on_claim=lambda idx, res: handouts[idx].update((res.index,)),
    )
    return loot, kept, sum(handouts, Counter())
