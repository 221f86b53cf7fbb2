"""Fig. 2 and Fig. 5 on real memory: a real-time queue's owner and thief
views in one process, on an in-process heap seen through
:class:`CountingWords`.  With no concurrency every count is exact."""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from ..core.damping import DampingTracker, TargetMode
from ..core.steal_half import max_steals
from ..core.stealval import StealValEpoch
from ..mp.atomics import WordRef, WordSlice
from ..mp.errors import StallTimeout
from ..mp.heap import MpHeap
from ..mp.queue import LAYOUTS
from .experiments import ExperimentResult

#: Word op -> the kind a row counts it as.
KINDS = {"fetch_add": "RMW", "swap": "RMW", "compare_swap": "RMW",
         "store": "store", "load_seq": "load", "load": "load",
         "read_block": "block", "write_block": "block"}


class _CountedRef(WordRef):
    """A word handle whose lock-free read is counted too."""

    __slots__ = ()

    def load_seq(self) -> int:
        return self._words.load_seq(self._index)

    load = load_seq


class CountingWords:
    """A :class:`~repro.mp.atomics.ShmWords` view tallying its ops (and
    its handles') by kind in :attr:`counts`."""

    def __init__(self, words) -> None:
        self._words = words
        self.counts: Counter = Counter()

    def __getattr__(self, name):
        attr = getattr(self._words, name)
        kind = KINDS.get(name)
        if kind is None:
            return attr

        def counted(*args):
            self.counts[kind] += 1
            return attr(*args)
        return counted

    def ref(self, index: int) -> _CountedRef:
        self._words._check(index)
        return _CountedRef(self, index)

    def slice(self, start: int, length: int) -> WordSlice:
        return WordSlice(self, start, length)


@contextmanager
def _counted(impl: str, capacity: int, **layout):
    """(owner, thief, counts) of one ``impl`` queue on a counted heap."""
    heap = MpHeap()
    try:
        lay = LAYOUTS[impl].reserve(heap, "q", capacity, **layout)
        heap.freeze()
        heap.words = words = CountingWords(heap.words)
        yield lay.owner(heap), lay.thief(heap), words.counts
    finally:
        heap.close()


def _ops(counts: Counter, op, times: int = 1) -> list:
    """RMWs, stores, loads, block copies, word ops, stripe locks per op."""
    counts.clear()
    for _ in range(times):
        op()
    per = [counts[k] / times for k in ("RMW", "store", "load", "block")]
    return [*per, sum(per), per[0] + per[1]]


def fig2_shm(scale: str = "quick") -> ExperimentResult:
    """One thief attempt's word ops, per protocol and outcome."""
    rows = []
    for impl in ("sws", "sdc", "ff-mult"):
        label = impl if impl == "ff-mult" else impl.upper()
        with _counted(impl, 64) as (owner, thief, counts):
            owner.push_all(range(64))
            owner.release(64)
            rows.append([label, "claim", *_ops(counts, thief.steal)])
            while thief.steal().claimed:
                pass
            rows.append([label, "empty", *_ops(counts, thief.steal)])
            if impl == "sws":
                tracker = DampingTracker(2)
                while tracker.modes.get(0) is not TargetMode.EMPTY:
                    thief.try_steal(tracker, 0)
                rows.append([label, "damped", *_ops(
                    counts, lambda: thief.try_steal(tracker, 0))])
    return ExperimentResult(
        title="Steal word ops on shared memory (one attempt, no contention)",
        headers=["queue", "attempt", "RMWs", "stores", "loads",
                 "block copies", "word ops", "stripe locks"],
        rows=rows,
        notes=["'damped': a try_steal on a victim in §4.3 empty mode"])


def fig5_shm(scale: str = "quick") -> ExperimentResult:
    """Owner word ops per release + acquire cycle, at two capacities with
    completion rows sized to fit; does an acquire wait on a claim?"""
    rows = []
    for epochs in (1, 2):
        for capacity in (256, 4096):
            slots = max_steals(capacity)
            with _counted("sws", capacity, max_epochs=epochs,
                          comp_slots=slots) as (owner, thief, counts):
                owner.push_all(range(capacity))

                def cycle():
                    owner.release(8)
                    owner.acquire()

                cycle()                       # the first close is empty
                ops = _ops(counts, cycle, times=8)
                # A thief's claim lands; its copy and completion have not.
                thief.stealval.fetch_add(StealValEpoch.ASTEAL_UNIT)
                owner.stall_s = 0.0           # a needed wait raises at once
                try:
                    owner.acquire()
                    waits = "no"
                except StallTimeout:
                    waits = "yes"
            rows.append([epochs, capacity, slots, *ops[:4], waits])
    return ExperimentResult(
        title="SWS owner cycle on shared memory (no thief)",
        headers=["epochs", "capacity", "comp slots", "RMWs / cycle",
                 "stores / cycle", "loads / cycle", "block copies / cycle",
                 "acquire waits on in-flight claim"],
        rows=rows,
        notes=["a cycle is release(8) + acquire(); with k claims a reopen "
               "adds k loads (settle) and k stores (reset)"])
