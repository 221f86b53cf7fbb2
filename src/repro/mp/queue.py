"""SWS, SDC and ff-mult queues over shared-memory words — each real-time
protocol written once, for threads and processes alike.

A protocol is one thief view and one owner class that extends it
(:class:`MpSwsThief` / :class:`MpSwsQueue`, :class:`MpSdcThief` /
:class:`MpSdcQueue`, :class:`MpFfMultThief` / :class:`MpFfMultQueue`).
The thief's ``steal()`` is the protocol's claim sequence, word op for
word op; the owner adds the release / acquire / drain bookkeeping and
inherits ``steal()``, ``try_steal()`` and ``has_work()``.  The stealval
encode/decode is :class:`repro.core.stealval.StealValEpoch`, reused,
never copied.  The owner object lives in the process that plays the PE
owning the queue; thief views are cheap handles any other process builds
from the picklable layout.  The threads backend runs the same owner
objects on a heap of its own process (:func:`in_process_queue`), raced
by thief threads (:func:`race`).

Building an owner writes no shared word.  A fresh heap is zero, and zero
is every layout's empty, unlocked state: ``StealValEpoch.pack(0, 0, 0,
0) == 0`` (epoch 0, no tasks, unlocked), and an SDC lock, tail and split
of 0 are a free lock over an empty section.  A claim that lands before
the owner starts settles to nothing (``owner_remainder(0, k)`` is
``(0, 0, 0)``), and a thief that holds the SDC lock keeps it: a PE that
starts late cannot overwrite what its thieves did first.

Task payloads are tuples of 64-bit words (``words_per_task``), or bare
ints when ``words_per_task == 1``, unless a view is told to
:meth:`~_MpTaskBuffer.decode_as` a workload's own record format.  The
*control* words go through the atomic seam (RMWs and stores under a
stripe lock, loads as seqlock reads); the *task buffer* is a lock-free
bulk data plane: a claimed block is exclusively owned by the claiming
thief, so the copy is one contiguous ``read_block`` byte slice (two when
the ring wraps), and the owner's fill is one ``write_block`` into the
not-yet-published region.

What the PE driver needs to know about a protocol it asks of its
views — never of its name: ``has_work()`` on both, ``try_steal`` on the
thief.  :data:`LAYOUTS` is the one place a protocol name becomes a
class.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..capabilities import check
from ..core.damping import DampingTracker, TargetMode
from ..core.results import StealStatus
from ..core.steal_half import schedule_tuple
from ..core.stealval import StealValEpoch, owner_remainder, thief_claim
from ..shmem.heap import SymArray, SymWord, SymmetricAllocator
from .atomics import Backoff, RecordCodec
from .fleet import Fleet
from .heap import MpHeap

#: Default completion-array slots per epoch (covers allotments < 2^24).
DEFAULT_COMP_SLOTS = 24


@dataclass
class ShimStealResult:
    """One thief attempt's outcome, for every protocol and substrate.

    ``claimed`` is empty exactly when the attempt got nothing.  The rest
    says why, or how: ``empty`` (no shared work), ``aborted_locked`` and
    ``view`` (SWS: the owner held the stealval locked; the decoded word
    the claiming fetch-add observed — the damping state machine of paper
    §4.3 feeds on it), ``lock_spins`` (SDC: spins spent on the queue
    lock), ``index`` (ff-mult: the absolute buffer index consumed, ``-1``
    when none — the mutation/property suites key duplicate multiplicity
    on it).
    """

    claimed: list = field(default_factory=list)
    empty: bool = False
    aborted_locked: bool = False
    view: object = None
    lock_spins: int = 0
    index: int = -1


class _MpTaskBuffer:
    """Word-backed task buffer shared by owner and thief views
    (``push_all`` and ``take_kept`` are the owner's)."""

    def _bind_buffer(self, heap: MpHeap, buffer: SymArray, capacity: int,
                     words_per_task: int) -> None:
        self._buf = heap.slice(buffer)
        self.capacity = capacity
        self.words_per_task = words_per_task
        self._codec = RecordCodec(words_per_task)

    def _read_tasks(self, start: int, count: int) -> list:
        """Bulk-copy ``count`` records starting at record index ``start``.

        A claimed block is exclusively owned by the reader (the steal
        protocol's fetch-add already won it), so this is the lock-free
        ``read_block`` path: one contiguous byte slice, or two when the
        block wraps the ring end — record indices are taken modulo the
        buffer, which is a no-op for the flat-cursor queues but lets ring
        layouts reuse the same accessor.
        """
        if count <= 0:
            return []
        wpt = self.words_per_task
        total = self.capacity * wpt
        nw = count * wpt
        if nw > total:
            raise IndexError(
                f"block of {count} records exceeds buffer of "
                f"{self.capacity}"
            )
        w0 = (start * wpt) % total
        buf = self._buf
        if w0 + nw <= total:
            data = buf.read_block(w0, nw)
        else:
            head = total - w0
            data = buf.read_block(w0, head) + buf.read_block(0, nw - head)
        return self._codec.decode(data)

    def decode_as(self, fmt: str) -> None:
        """Carry records as ``fmt``, a ``struct`` format of
        ``words_per_task`` whole words, instead of tuples of words."""
        self._codec = RecordCodec(self.words_per_task, fmt)

    def push_all(self, tasks) -> int:
        """Append many tasks in one bulk write; returns how many fit.

        The fill region ``[nfilled, nfilled + fit)`` is unpublished
        (``release`` exposes it later through a control-word store), so
        the single-writer ``write_block`` contract holds.
        """
        tasks = list(tasks)
        fit = min(len(tasks), self.capacity - self.nfilled)
        if fit <= 0:
            return 0
        self._buf.write_block(self.nfilled * self.words_per_task,
                              self._codec.encode(tasks[:fit]))
        self.nfilled += fit
        return fit

    def take_kept(self) -> list:
        """Hand back (and clear) the owner-reabsorbed tasks."""
        kept, self.owner_kept = self.owner_kept, []
        return kept


class _Layout:
    """A queue's symmetric-heap footprint: picklable, and the factory of
    its two views (``owner_class`` / ``thief_class``)."""

    def owner(self, heap: MpHeap):
        """Owner-side queue object (construct in the owning process)."""
        return self.owner_class(heap, self)

    def thief(self, heap: MpHeap):
        """Thief-side view (construct in any process)."""
        return self.thief_class(heap, self)


# ======================================================================
# SWS: the fused fetch-add stealval
# ======================================================================

class MpSwsThief(_MpTaskBuffer):
    """Thief-side view: just enough shared words to claim blocks."""

    #: ``has_work``'s verdict, cached against the raw word it decoded:
    #: every claim changes the word, so a stale verdict is impossible.
    _sv_raw = None
    _sv_work = False

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.stealval = heap.ref(layout.stealval)
        # Every completion word, bound once: ``comp[epoch * comp_slots + i]``.
        comp = heap.slice(layout.comp)
        self.comp = [comp[i] for i in range(len(comp))]
        self.comp_slots = layout.comp_slots

    def has_work(self) -> bool:
        """Does the published allotment still hold unclaimed tasks?

        Seqlock read: every stealval mutation goes through the locked
        word API (which bumps the shadow sequence), so this skips the
        stripe lock the thieves' claims are hammering.
        """
        raw = self.stealval.load_seq()
        if raw != self._sv_raw:
            self._sv_raw = raw
            self._sv_work = StealValEpoch.has_work(raw)
        return self._sv_work

    def steal(self) -> ShimStealResult:
        """One claiming attempt — exactly the simulator's 3-step protocol.

        The single ``fetch_add`` on the stealval both discovers and
        claims; everything after it is local arithmetic, the copy of the
        claimed block and the completion signal in the epoch's row.
        """
        old = self.stealval.fetch_add(StealValEpoch.ASTEAL_UNIT)
        view = StealValEpoch.unpack(old)
        if view.locked:
            return ShimStealResult(aborted_locked=True, view=view)
        vol, disp = thief_claim(view.itasks, view.asteals)
        if vol == 0:
            return ShimStealResult(empty=True, view=view)
        # The tail field stores start % 2^19; the buffer stays smaller
        # than that (``reserve`` checks), so the raw value is the index.
        claimed = self._read_tasks(view.tail + disp, vol)
        self.comp[view.epoch * self.comp_slots + view.asteals].fetch_add(vol)
        return ShimStealResult(claimed=claimed, view=view)

    def try_steal(self, tracker: DampingTracker, victim: int):
        """One damped attempt (paper §4.3): ``(status, claimed)``.

        A victim in empty mode is probed read-only first; when the probe
        finds nothing the status is ``None`` — no attempt, no fetch-add
        spent.  A claim that meets the locked word is ``DISABLED`` and
        leaves the tracker alone; one that finds the allotment spent is
        ``EMPTY`` and may demote the victim.
        """
        if tracker.modes.get(victim) is TargetMode.EMPTY:
            if not self.has_work():
                return None, ()
            tracker.note_success(victim)
        res = self.steal()
        if res.claimed:
            tracker.note_success(victim)
            return StealStatus.STOLEN, res.claimed
        if res.aborted_locked:
            return StealStatus.DISABLED, ()
        tracker.note_failed_claim(victim, res.view)
        return StealStatus.EMPTY, ()


class MpSwsQueue(MpSwsThief):
    """Owner-side SWS queue: the thief view plus the owner's release /
    acquire / close / reopen / settle bookkeeping and the epoch-array
    completion discipline."""

    #: Cap on the adaptive backoff's sleep while waiting on in-flight
    #: completions (the historical fixed poll interval).
    POLL_S = 1e-5

    #: Hard wall-clock deadline for one no-progress completion wait,
    #: past which it raises :class:`~repro.mp.errors.StallTimeout`.
    #: ``None`` (the default, and the threads backend's setting) keeps
    #: the historical unbounded wait; the mp hammer sets it so a claim a
    #: wedged thief never completes fails the run instead of hanging the
    #: owner.
    stall_s: float | None = None

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        super().__init__(heap, layout)
        self.nfilled = 0
        self.max_epochs = epochs = layout.max_epochs
        self.epoch = 0
        # One record per epoch: the allotment [start, start + itasks) it
        # published and, once closed, the volumes its claims owe the
        # epoch's completion slots [0, claims).  The zero stealval of a
        # fresh heap is epoch 0's empty record.
        self._start = [0] * epochs
        self._itasks = [0] * epochs
        self._owed: list[tuple[int, ...]] = [()] * epochs
        self.cursor = 0                      # next unshared buffer index
        self.owner_kept: list = []           # tasks re-acquired by the owner

    def _wait_settled(self, *epochs: int) -> None:
        """Wait until each epoch's last record has all its completions."""
        backoff = Backoff(sleep_s=self.POLL_S / 4, max_sleep_s=self.POLL_S,
                          deadline_s=self.stall_s)
        while not all(map(self._settled, epochs)):
            backoff.wait()

    def _keep(self, start: int, count: int) -> None:
        if count:
            self.owner_kept.extend(self._read_tasks(start, count))

    def release(self, count: int) -> None:
        """Publish the next ``count`` buffer tasks as a new allotment.

        Unlike the simulator's split queue — where the unclaimed
        remainder stays physically contiguous with newly exposed tasks —
        this flat buffer cannot re-share a remainder across the hole an
        ``acquire`` leaves, so any unclaimed remainder is absorbed by
        the owner first (acquire-all-then-release).  The claim/lock/
        completion races being validated are unaffected.
        """
        rem_start, rem = self._close()
        self._keep(rem_start, rem)
        count = min(count, self.nfilled - self.cursor)
        start = self.cursor
        self.cursor += count
        self._reopen(start, count)

    def acquire(self) -> list:
        """Lock, pull back half the unclaimed remainder, re-publish."""
        rem_start, rem = self._close()
        ntake = (rem + 1) // 2
        taken = self._read_tasks(rem_start + (rem - ntake), ntake) if ntake else []
        self.owner_kept.extend(taken)
        self._reopen(rem_start, rem - ntake)
        return taken

    def _close(self) -> tuple[int, int]:
        old = self.stealval.swap(StealValEpoch.locked_word())
        view = StealValEpoch.unpack(old)
        e = self.epoch
        assert view.epoch == e and view.itasks == self._itasks[e]
        claims, disp, rem = owner_remainder(view.itasks, view.asteals)
        self._owed[e] = schedule_tuple(view.itasks)[:claims]
        return self._start[e] + disp, rem

    def _reopen(self, start: int, itasks: int) -> None:
        e = (self.epoch + 1) % self.max_epochs
        # A thief writes completion slot ``asteals`` only when its claim
        # is non-empty, and one that meets the locked word writes nothing:
        # only the slots [0, claims) of the epoch's last record can be
        # non-zero.  Wait until each holds its volume, then zero just those.
        owed = self._owed[e]
        if owed:
            self._wait_settled(e)
            base = e * self.comp_slots
            for slot in self.comp[base:base + len(owed)]:
                slot.store(0)
        self.epoch = e
        self._start[e], self._itasks[e], self._owed[e] = start, itasks, ()
        self.stealval.store(StealValEpoch.pack(0, e, itasks, start % (1 << 19)))

    def _settled(self, e: int) -> bool:
        base = e * self.comp_slots
        comp = self.comp
        return all(comp[base + i].load_seq() == vol
                   for i, vol in enumerate(self._owed[e]))

    def drain(self) -> None:
        """Wait for every claimed steal to complete, absorb the rest.

        Leaves the stealval locked: post-drain claim attempts abort.
        """
        rem_start, rem = self._close()
        self._keep(rem_start, rem)
        self._wait_settled(*range(self.max_epochs))
        self._keep(self.cursor, self.nfilled - self.cursor)
        self.cursor = self.nfilled


@dataclass(frozen=True)
class SwsQueueLayout(_Layout):
    """Picklable symmetric-heap footprint of one mp SWS queue."""

    stealval: SymWord
    comp: SymArray
    buffer: SymArray
    capacity: int
    words_per_task: int = 1
    max_epochs: int = 2
    comp_slots: int = DEFAULT_COMP_SLOTS

    owner_class = MpSwsQueue
    thief_class = MpSwsThief

    @classmethod
    def reserve(
        cls,
        heap: MpHeap,
        prefix: str,
        capacity: int,
        words_per_task: int = 1,
        max_epochs: int = 2,
        comp_slots: int = DEFAULT_COMP_SLOTS,
    ) -> "SwsQueueLayout":
        """Lay the queue out on an unfrozen heap via the shmem allocator."""
        if capacity >= 1 << 19:
            # The stealval tail field stores start % 2^19; the buffer
            # must stay below that so the raw value is the buffer index.
            raise ValueError(f"capacity must be < 2^19, got {capacity}")
        alloc = SymmetricAllocator(heap, prefix)
        stealval = alloc.word("stealval")
        comp = alloc.array("comp", max_epochs * comp_slots)
        buffer = alloc.array("buffer", capacity * words_per_task)
        alloc.commit()
        return cls(stealval, comp, buffer, capacity, words_per_task,
                   max_epochs, comp_slots)


# ======================================================================
# The [tail, split) shared section: SDC under its lock, ff-mult bare
# ======================================================================

class _TailSplitLayout(_Layout):
    """Reserves its ``WORDS`` (in order), then the task buffer."""

    @classmethod
    def reserve(cls, heap: MpHeap, prefix: str, capacity: int,
                words_per_task: int = 1):
        """Lay the queue out on an unfrozen heap via the shmem allocator."""
        alloc = SymmetricAllocator(heap, prefix)
        words = [alloc.word(name) for name in cls.WORDS]
        buffer = alloc.array("buffer", capacity * words_per_task)
        alloc.commit()
        return cls(*words, buffer, capacity, words_per_task)


class _TailSplitThief(_MpTaskBuffer):
    """Thief side of a ``[tail, split)`` queue: no damping, so the
    tracker is never consulted."""

    def __init__(self, heap: MpHeap, layout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)

    def has_work(self) -> bool:
        """Does ``[tail, split)`` hold tasks?  Two seqlock reads."""
        return self.split.load_seq() - self.tail.load_seq() > 0

    def try_steal(self, tracker: DampingTracker, victim: int):
        """One attempt: ``(status, claimed)``; ``LOCKED_ABORT`` when the
        queue lock outlasted the spin budget."""
        res = self.steal()
        if res.claimed:
            return StealStatus.STOLEN, res.claimed
        return (StealStatus.EMPTY if res.empty
                else StealStatus.LOCKED_ABORT), ()


class _TailSplitOwner:
    """Owner side of a ``[tail, split)`` shared section — the part SDC
    and the fence-free deque have in common, mixed in ahead of the
    protocol's thief view.

    Nothing here takes a lock: before re-publishing, the owner absorbs
    the shared remainder ``[tail, split)`` into ``owner_kept`` and parks
    the tail.  Every absorb reads the range *before* moving the tail, so
    no index is ever skipped unread.  SDC runs each operation inside its
    queue lock; the fence-free deque runs them bare and lives with what
    a racing thief's stale ``tail`` store can then do (see
    :class:`MpFfMultQueue`).
    """

    def __init__(self, heap: MpHeap, layout) -> None:
        super().__init__(heap, layout)
        self.nfilled = 0
        self.cursor = 0                      # next unshared buffer index
        self.owner_kept: list = []           # tasks re-acquired by the owner

    def release(self, count: int) -> None:
        """Absorb the shared remainder (acquire-all, like the real
        protocols' empty-shared precondition), then expose the next
        ``count`` buffer tasks."""
        t, s = self.tail.load(), self.split.load()
        if s > t:
            self.owner_kept.extend(self._read_tasks(t, s - t))
        count = min(count, self.nfilled - self.cursor)
        start = self.cursor
        self.cursor += count
        # Order matters: park the tail at the new region's base *before*
        # widening the split, so a thief never observes (old tail, new
        # split) and walks through the absorbed gap.
        self.tail.store(start)
        self.split.store(start + count)

    def acquire(self) -> list:
        """Pull back half the shared section (reads before the shrink)."""
        t, s = self.tail.load(), self.split.load()
        avail = s - t
        if avail <= 0:
            return []
        ntake = (avail + 1) // 2
        taken = self._read_tasks(s - ntake, ntake)
        self.owner_kept.extend(taken)
        self.split.store(s - ntake)
        return taken

    def drain(self) -> None:
        """Absorb everything left: shared remainder, then unshared."""
        t, s = self.tail.load(), self.split.load()
        if s > t:
            self.owner_kept.extend(self._read_tasks(t, s - t))
        self.tail.store(s)
        self.owner_kept.extend(
            self._read_tasks(self.cursor, self.nfilled - self.cursor)
        )
        self.cursor = self.nfilled


# -- SDC: the lock-based baseline protocol ------------------------------

def _sdc_lock(lock, max_spins: int | None) -> tuple[bool, int]:
    """Spin for the SDC queue lock; returns ``(acquired, spins)``.

    The value CASed into the lock word is this process's pid; nothing
    reads it back.  With ``max_spins=None`` the spin is unbounded.
    """
    token = os.getpid()
    spins = 0
    while lock.compare_swap(0, token) != 0:
        spins += 1
        if max_spins is not None and spins >= max_spins:
            return False, spins
        time.sleep(0)
    return True, spins


class MpSdcThief(_TailSplitThief):
    """Thief-side view of an mp SDC queue."""

    #: Lock spins before an attempt gives up as ``LOCKED_ABORT``.
    max_spins = 200

    def __init__(self, heap: MpHeap, layout: SdcQueueLayout) -> None:
        super().__init__(heap, layout)
        self.lock = heap.ref(layout.lock)

    def steal(self) -> ShimStealResult:
        """One lock-protected steal-half attempt (the six-step SDC
        shape: lock, read tail and split, copy, advance tail, unlock)."""
        acquired, spins = _sdc_lock(self.lock, self.max_spins)
        res = ShimStealResult(lock_spins=spins)
        if not acquired:
            return res
        try:
            t, s = self.tail.load(), self.split.load()
            avail = s - t
            if avail <= 0:
                res.empty = True
                return res
            n = max(1, avail // 2)
            res.claimed = self._read_tasks(t, n)
            self.tail.store(t + n)
            return res
        finally:
            self.lock.store(0)


def _under_lock(op):
    """Run an owner operation of :class:`MpSdcQueue` inside its lock."""
    def locked(self, *args):
        _sdc_lock(self.lock, None)
        try:
            return op(self, *args)
        finally:
            self.lock.store(0)
    return locked


class MpSdcQueue(_TailSplitOwner, MpSdcThief):
    """Owner-side SDC (lock-based) queue over cross-process atomics.

    The owner operations are :class:`_TailSplitOwner`'s, each run under
    the queue lock thieves also take.
    """

    release = _under_lock(_TailSplitOwner.release)
    acquire = _under_lock(_TailSplitOwner.acquire)
    drain = _under_lock(_TailSplitOwner.drain)


@dataclass(frozen=True)
class SdcQueueLayout(_TailSplitLayout):
    """Picklable symmetric-heap footprint of one mp SDC queue."""

    lock: SymWord
    tail: SymWord
    split: SymWord
    buffer: SymArray
    capacity: int
    words_per_task: int = 1

    WORDS = ("lock", "tail", "split")
    owner_class = MpSdcQueue
    thief_class = MpSdcThief


# -- ff-mult: the fence-free multiplicity deque -------------------------

class MpFfMultThief(_TailSplitThief):
    """Thief-side view of an mp ff-mult queue (no atomic RMW at all)."""

    def steal(self) -> ShimStealResult:
        """One fence-free steal (Castañeda & Piña): two plain reads, one
        plain store.

        Plain load of ``tail`` and ``split``, plain read of one task
        record, plain store of ``tail + 1``.  Two thieves observing the
        same tail both consume the same record and both store the same
        new tail — a legal duplicate handout.  The record is read
        *before* the tail store, so an index is never passed without
        someone holding its task: races duplicate work, they cannot lose
        it.
        """
        t = self.tail.load()
        s = self.split.load()
        if s - t <= 0:
            return ShimStealResult(empty=True)
        claimed = self._read_tasks(t, 1)
        self.tail.store(t + 1)
        return ShimStealResult(claimed=list(claimed), index=t)


class MpFfMultQueue(_TailSplitOwner, MpFfMultThief):
    """Owner-side fence-free multiplicity queue over shared memory.

    :class:`_TailSplitOwner` run bare — no lock word at all: the owner
    repairs the tail and absorbs the shared remainder with plain stores.
    A thief's stale ``tail`` store can land after the owner parked the
    tail and re-expose consumed indices — across threads or address
    spaces those re-steals are the duplicates the at-least-once contract
    allows (the hammers check set-coverage, not partition).
    """


@dataclass(frozen=True)
class FfMultQueueLayout(_TailSplitLayout):
    """Picklable symmetric-heap footprint of one mp ff-mult queue."""

    tail: SymWord
    split: SymWord
    buffer: SymArray
    capacity: int
    words_per_task: int = 1

    WORDS = ("tail", "split")
    owner_class = MpFfMultQueue
    thief_class = MpFfMultThief


#: Protocol name -> layout: the one place a name turns into code.  The
#: registry's ``Protocol.mp_impl`` names an entry.
LAYOUTS = {
    "sws": SwsQueueLayout,
    "sdc": SdcQueueLayout,
    "ff-mult": FfMultQueueLayout,
}


@contextmanager
def in_process_queue(impl: str, tasks):
    """An owner queue of ``impl`` holding ``tasks``, on a heap of this
    process only — the threads backend's substrate.

    The heap's lifetime is the :class:`~repro.mp.fleet.Fleet`'s, with no
    child ever spawned: it is closed when the ``with`` block exits,
    however it exits.
    """
    tasks = list(tasks)
    with Fleet(f"{impl} queue", LAYOUTS[impl], 1,
               max(1, len(tasks))) as fleet:
        queue = fleet.layouts[0].owner(fleet.heap)
        queue.push_all(tasks)
        yield queue


# ======================================================================
# The race harness, and its cross-process hammer
# ======================================================================

def race(queue, nthieves: int, chunk: int, acquires: int, *,
         pace_s: float = 2e-5, on_claim=None) -> tuple[list[list], list]:
    """Race one owner against ``nthieves`` thief threads.

    The owner (the calling thread) publishes ``queue``'s buffer in
    chunks — ``release``, a short pause for claims to land, an
    occasional ``acquire`` — then ``drain``s, while the thieves race
    ``steal`` against it under genuine preemption.  ``queue`` is any
    owner queue (``cursor`` / ``nfilled`` / ``release`` / ``acquire`` /
    ``drain`` / ``steal``).

    ``on_claim(idx, result)`` runs in thief ``idx`` on every winning
    steal.  With ``nthieves=0`` only the owner side runs (the mp
    hammer's thieves are processes).  Returns ``(per-thief loot, tasks
    the owner kept)``.
    """
    loot: list[list] = [[] for _ in range(nthieves)]
    stop = threading.Event()

    def thief(idx: int) -> None:
        while not stop.is_set():
            res = queue.steal()
            if res.claimed:
                if on_claim is not None:
                    on_claim(idx, res)
                loot[idx].extend(res.claimed)
            else:
                time.sleep(1e-6)

    threads = [
        threading.Thread(target=thief, args=(i,), daemon=True)
        for i in range(nthieves)
    ]
    for t in threads:
        t.start()
    try:
        done_acquires = 0
        while queue.cursor < queue.nfilled:
            queue.release(chunk)
            time.sleep(pace_s)
            if done_acquires < acquires:
                queue.acquire()
                done_acquires += 1
        queue.drain()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
    return loot, queue.owner_kept


def _hammer_thief(idx, heap, layout, stop_addr, stall_s) -> list:
    """Thief child: race claims until the owner raises the stop flag."""
    stop = heap.ref(stop_addr)
    thief = layout.thief(heap)
    loot: list = []
    backoff = Backoff(sleep_s=1e-6, max_sleep_s=1e-4, deadline_s=stall_s)
    while not stop.load_seq():
        res = thief.steal()
        if res.claimed:
            loot.extend(res.claimed)
            backoff.reset()
        else:
            backoff.wait()
    return loot


def hammer_mp(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
    impl: str = "sws",
    join_timeout: float = 30.0,
    stall_s: float = 60.0,
) -> tuple[list[list[int]], list[int]]:
    """Race harness: owner in this process, N thief *processes* (the
    thread-thief form is :func:`repro.threads.protocol.hammer`).

    Returns ``(per-thief loot, owner-kept tasks)``.  For the
    exactly-once protocols (``sws``, ``sdc``) their disjoint union must
    equal ``tasks`` exactly — the conservation contract, under genuine
    hardware preemption across address spaces.  For ``ff-mult``
    the contract is at-least-once: the union must *cover* ``tasks``
    (set equality), with duplicates legal wherever thief stores raced.

    ``stall_s`` is a hard wall-clock deadline on every wait in the
    harness — the owner's completion settles and each thief's idle
    backoff; ``join_timeout`` bounds result collection.  A wedged run
    raises a diagnostic naming the stuck party (a thief's own traceback
    in a ``RuntimeError``, or :class:`~repro.mp.errors.MpStallError`)
    instead of hanging CI until the job timeout guesses for it, and
    whatever the owner raises, no thief outlives the call.
    """
    check(impl, "mp", ("race",), nthieves + 1)
    with Fleet("mp hammer", LAYOUTS[impl], 1, len(tasks),
               ctl=("stop",)) as fleet:
        layout, stop_addr = fleet.layouts[0], fleet.ctl["stop"]
        queue = layout.owner(fleet.heap)
        queue.stall_s = stall_s
        queue.push_all(tasks)
        for i in range(nthieves):
            fleet.spawn(i, _hammer_thief, layout, stop_addr, stall_s)
        _, kept = race(queue, 0, max(1, len(tasks) // releases), acquires)
        fleet.heap.ref(stop_addr).store(1)
        fleet.collect(join_timeout)
        loot: list[list[int]] = [[] for _ in range(nthieves)]
        for idx, claimed in fleet.reports:
            loot[idx] = claimed
        return loot, kept
