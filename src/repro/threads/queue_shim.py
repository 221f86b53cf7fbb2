"""SWS stealval protocol over real threads — the race-test harness.

This binds the substrate-independent SWS shim protocol
(:class:`~repro.threads.protocol.SwsShimCore`) to
:class:`~repro.threads.atomics.AtomicWord64`, so genuine thread
preemption exercises the same invariants the simulator's event ordering
guarantees:

* a claiming ``fetch_add`` partitions the allotment — no task is claimed
  twice, none is skipped;
* claims racing an owner lock (``swap`` to the locked sentinel) either
  land before the swap (the owner accounts for them) or observe the
  locked word (the thief aborts and its stray increment is obliterated
  by the owner's re-publish);
* completion signalling via per-epoch slots reconstructs exactly the
  claimed volumes.

Tasks are plain integers; the "queue" is a Python list indexed like the
circular buffer.  Thieves record which tasks they stole; tests assert the
union of all thieves' loot plus the owner's leftovers equals the original
task set exactly.  The same core also drives the multiprocess substrate
(:mod:`repro.mp.queue`) — protocol logic lives in exactly one place.
"""

from __future__ import annotations

from .atomics import AtomicArray64, AtomicWord64
from .protocol import SwsShimCore, race


class ThreadSwsQueue(SwsShimCore):
    """Owner-side SWS queue state over real atomics."""

    def __init__(self, tasks: list[int], max_epochs: int = 2, comp_slots: int = 24) -> None:
        self.buffer = list(tasks)            # immutable backing store
        self.nfilled = len(self.buffer)
        self.stealval = AtomicWord64(0)
        self.comp = AtomicArray64(max_epochs * comp_slots)
        self._init_protocol(max_epochs, comp_slots)

    def _read_tasks(self, start: int, count: int) -> list[int]:
        return self.buffer[start : start + count]


def hammer(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
) -> tuple[list[list[int]], list[int]]:
    """Race harness: one owner thread releasing/acquiring, N thief threads.

    Returns ``(per-thief loot, owner-kept tasks)``; their disjoint union
    must equal ``tasks``.
    """
    return race(ThreadSwsQueue(tasks), nthieves,
                max(1, len(tasks) // releases), acquires)
