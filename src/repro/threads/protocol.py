"""The threads backend: an mp layout's owner raced by thief threads.

Every real-time protocol is written once, in :mod:`repro.mp.queue`.
Here its owner runs on a heap of this process only
(:func:`~repro.mp.queue.in_process_queue`) and :func:`~repro.mp.queue.race`
sets thief threads on it, preempted by the interpreter instead of the
OS kernel.
"""

from __future__ import annotations

from ..capabilities import check
from ..mp.queue import in_process_queue, race


def hammer(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
    impl: str = "sws",
) -> tuple[list[list[int]], list[int]]:
    """Race harness: one owner, N thief *threads* (the process-thief
    form is :func:`repro.mp.queue.hammer_mp`, same arguments).

    The queue is ``impl``'s shared-memory layout on a heap of this
    process only.  Returns ``(per-thief loot, owner-kept tasks)``: for
    the exactly-once protocols their disjoint union equals ``tasks``,
    for ``ff-mult`` it covers them.
    """
    check(impl, "threads", ("race",), nthieves + 1)
    with in_process_queue(impl, tasks) as queue:
        return race(queue, nthieves, max(1, len(tasks) // releases),
                    acquires)
