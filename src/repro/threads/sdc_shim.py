"""SDC steal protocol over real threads — the baseline race harness.

Counterpart of :class:`~repro.threads.queue_shim.ThreadSwsQueue`: the
lock-based SDC protocol re-run under genuine preemption, by binding the
substrate-independent core (:class:`~repro.threads.protocol.SdcShimCore`)
to :class:`~repro.threads.atomics.AtomicWord64`.  Thieves acquire a
spinlock word, read the (tail, split) metadata, advance the tail, and
unlock — exactly the simulator's six-step structure minus the wire.

Comparing the two shims under the same hammer shows the behavioural
difference the paper measures: SDC thieves serialize on the lock while
SWS claims proceed concurrently.  The same core also drives the
multiprocess substrate (:mod:`repro.mp.queue`).
"""

from __future__ import annotations

from .atomics import AtomicWord64
from .protocol import SdcShimCore, race


class ThreadSdcQueue(SdcShimCore):
    """Owner-side SDC queue state over real atomics."""

    def __init__(self, tasks: list[int]) -> None:
        self.buffer = list(tasks)
        self.nfilled = len(self.buffer)
        self.lock = AtomicWord64(0)
        self.tail = AtomicWord64(0)
        self.split = AtomicWord64(0)
        self._init_protocol()

    def _read_tasks(self, start: int, count: int) -> list[int]:
        return self.buffer[start : start + count]


def hammer_sdc(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
) -> tuple[list[list[int]], list[int]]:
    """Race harness mirroring :func:`repro.threads.queue_shim.hammer`."""
    return race(ThreadSdcQueue(tasks), nthieves,
                max(1, len(tasks) // releases), acquires)
