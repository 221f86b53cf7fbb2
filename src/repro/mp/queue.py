"""SWS, SDC and ff-mult queues over shared-memory words — the one
binding of the shim protocols, for threads and processes alike.

These bind the substrate-independent shim protocol cores
(:mod:`repro.threads.protocol`, reusing
:class:`repro.core.stealval.StealValEpoch` verbatim) to shared-memory
words from :class:`~repro.mp.heap.MpHeap`.  The owner-side objects live
in the process that plays the PE owning the queue; thief-side views are
cheap picklable handles any other process can steal through.  The
threads backend runs the same owner objects on a heap of its own
process (:func:`in_process_queue`), raced by thief threads.

Task payloads are tuples of 64-bit words (``words_per_task``), or bare
ints when ``words_per_task == 1``.  The *control* words go through the
striped-lock atomic seam; the *task buffer* is a lock-free bulk data
plane: a claimed block is exclusively owned by the claiming thief, so
the copy is one contiguous ``read_block`` byte slice (two when the ring
wraps), and the owner's fill is one ``write_block`` into the
not-yet-published region.

What the PE driver and the crash supervisor need to know about a
protocol they ask of its layout and views — never of its name:
``exactly_once`` and ``lock_word`` on the layout, ``has_work()`` on both
views, ``try_steal`` / ``arm_crash`` / ``scavenge`` on the thief.
:data:`LAYOUTS` is the one place a protocol name becomes a class.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from ..core.damping import DampingTracker, TargetMode
from ..core.results import StealStatus
from ..core.steal_half import schedule, steal_displacement
from ..core.stealval import StealValEpoch, owner_remainder
from ..shmem.heap import SymArray, SymWord, SymmetricAllocator
from ..threads.protocol import (
    Backoff,
    FfMultShimCore,
    RecordCodec,
    SdcShimCore,
    ShimStealResult,
    SwsShimCore,
    ffmult_steal_once,
    race,
    sdc_steal_once,
    sws_steal_once,
)
from .atomics import pid_alive
from .fleet import Fleet
from .heap import MpHeap

#: Default completion-array slots per epoch (covers allotments < 2^24).
DEFAULT_COMP_SLOTS = 24


def _dead_pid_token(token: int) -> bool:
    """Dead-holder oracle for pid tokens (SDC lock, SWS claimant).

    The mp lock and claimant words hold a pid, so "is the holder dead"
    is a signal-0 probe.  Pid recycling within one run would mask a
    death; astronomically unlikely at these process counts and run
    lengths, and the cost would be a diagnosed stall, not corruption.
    """
    return not pid_alive(token)


class _MpTaskBuffer:
    """Word-backed task buffer shared by owner and thief views."""

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
        buffer, which is a no-op for the flat-cursor shims but lets ring
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
        batch = tasks[:fit]
        wpt = self.words_per_task
        if wpt > 1:
            for task in batch:
                if len(task) != wpt:
                    raise ValueError(
                        f"task must be {wpt} words, got {len(task)}"
                    )
        self._buf.write_block(self.nfilled * wpt, self._codec.encode(batch))
        self.nfilled += fit
        return fit


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

class _SwsWords(_MpTaskBuffer):
    """The words both views of an SWS queue address."""

    #: ``has_work``'s verdict, cached against the raw word it decoded:
    #: every claim changes the word, so a stale verdict is impossible.
    _sv_raw = None
    _sv_work = False

    def _bind(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.stealval = heap.ref(layout.stealval)
        self.comp = heap.slice(layout.comp)
        self.comp_slots = layout.comp_slots
        self.claimant = (
            heap.slice(layout.claimant) if layout.claimant is not None
            else None
        )

    def has_work(self) -> bool:
        """Does the published allotment still hold unclaimed tasks?

        Seqlock read: every stealval mutation goes through the locked
        word API (which bumps the shadow sequence), so this skips the
        stripe lock the thieves' claims are hammering.
        """
        raw = self.stealval.load_seq()
        if raw != self._sv_raw:
            self._sv_raw = raw
            self._sv_work = DampingTracker.view_has_work(
                StealValEpoch.unpack(raw))
        return self._sv_work


class MpSwsQueue(_SwsWords, SwsShimCore):
    """Owner-side SWS queue state over cross-process atomics."""

    #: Dead-claimant oracle ``token -> bool``: maps a claimant token
    #: recorded by ``sws_steal_once`` to "that process is dead".  Only
    #: consulted once a completion wait outlives ``stall_s``, and tokens
    #: are only written by thieves armed for the crash regime.
    dead_claimant = staticmethod(_dead_pid_token)

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind(heap, layout)
        self.nfilled = 0
        self._init_protocol(layout.max_epochs, layout.comp_slots)

    def _on_settle_stall(self) -> bool:
        """A completion wait stalled: void claims held by dead thieves.

        A thief SIGKILLed between its claiming ``fetch_add`` and its
        completion ``fetch_add`` leaves its slot short forever, wedging
        the owner's settle wait.  For each unsettled claim whose
        recorded claimant token maps to a dead process, re-read the
        claimed buffer range (still valid: claimed ranges are never
        overwritten while the record is live) back into ``owner_kept``
        and store the expected volume into the completion slot.  The
        dead thief may also have copied the block before dying — that
        path yields a duplicate execution, which at-least-once
        accounting absorbs.

        Returns truthy to keep waiting: either a void just unwedged the
        books, or the claimant is alive and merely slow.  Only a long
        run of fruitless rounds (no void, no settle) gives up and lets
        the backoff raise its diagnostic.
        """
        if self.void_dead_claims():
            self._stall_rounds = 0
            return True
        self._stall_rounds = getattr(self, "_stall_rounds", 0) + 1
        return self._stall_rounds < 30

    def void_dead_claims(self) -> int:
        """Void unsettled claims whose claimant is dead; returns count."""
        if self.claimant is None:
            return 0
        voided = 0
        for rec in self._records:
            claims = rec.get("claims")
            if claims is None:
                continue  # the live (still-open) record
            vols = schedule(rec["itasks"])
            base = rec["epoch"] * self.comp_slots
            for i in range(claims):
                if self.comp[base + i].load() == vols[i]:
                    continue
                token = self.claimant[base + i].load()
                if token and self.dead_claimant(token):
                    disp = steal_displacement(rec["itasks"], i)
                    self.owner_kept.extend(
                        self._read_tasks(rec["start"] + disp, vols[i])
                    )
                    self.comp[base + i].store(vols[i])
                    voided += 1
        return voided


class MpSwsThief(_SwsWords):
    """Thief-side view: just enough shared words to claim blocks."""

    #: Crash-mode hooks (inert until :meth:`arm_crash`): a nonzero
    #: ``claim_token`` (the thief's pid) records ownership of each
    #: winning claim in the victim's claimant array; ``intent(start,
    #: vol)`` durably records the claimed buffer range before the copy
    #: so a thief crash after the completion signal is recoverable by
    #: the supervisor.
    claim_token: int = 0
    intent = None

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind(heap, layout)

    def arm_crash(self, intent) -> None:
        """Crash regime: record claimant tokens and steal intents."""
        self.intent = intent
        self.claim_token = os.getpid()

    def steal(self) -> ShimStealResult:
        """One fused discover+claim attempt (single remote fetch-add)."""
        return sws_steal_once(
            self.stealval, self.comp, self.comp_slots, self._read_tasks,
            claimant=self.claimant if self.claim_token else None,
            claim_token=self.claim_token, intent=self.intent,
        )

    def try_steal(self, tracker: DampingTracker, victim: int):
        """One damped attempt (paper §4.3): ``(status, claimed)``.

        A victim in empty mode is probed read-only first; when the probe
        finds nothing the status is ``None`` — no attempt, no fetch-add
        spent.  A claim that meets the locked word is ``DISABLED`` and
        leaves the tracker alone; one that finds the allotment spent is
        ``EMPTY`` and may demote the victim.
        """
        if tracker.mode(victim) is TargetMode.EMPTY:
            tracker.note_probe(victim, self.has_work())
            if tracker.mode(victim) is TargetMode.EMPTY:
                return None, ()
        res = self.steal()
        if res.claimed:
            tracker.note_success(victim)
            return StealStatus.STOLEN, res.claimed
        if res.aborted_locked:
            return StealStatus.DISABLED, ()
        tracker.note_failed_claim(victim, res.view)
        return StealStatus.EMPTY, ()

    def scavenge(self) -> list:
        """Take over a dead owner's queue; return the unclaimed remainder.

        The supervisor plays the owner's own close protocol: one swap to
        the locked sentinel wins against every racing claim (a fetch-add
        before the swap is counted in the closing view's ``asteals``;
        one after it observes the sentinel and aborts).  Claims still in
        flight are then settled or — when the claimant pid is dead —
        voided, their ranges re-read from the still-valid buffer bytes.
        """
        view = StealValEpoch.unpack(
            self.stealval.swap(StealValEpoch.locked_word()))
        if view.locked:
            # Already locked: a previous scavenge, or a death inside an
            # owner-side critical window (unreachable from the seeded
            # crash points, which only fire between tasks / post-claim /
            # in die_holding).
            return []
        tasks: list = []
        claims, disp, rem = owner_remainder(view.itasks, view.asteals)
        if rem > 0:
            tasks.extend(self._read_tasks(view.tail + disp, rem))
        # Settle or void the outstanding claims so a respawned owner can
        # safely reuse the completion rows.
        vols = schedule(view.itasks)
        base = view.epoch * self.comp_slots
        backoff = Backoff(sleep_s=1e-5, max_sleep_s=1e-3, deadline_s=30.0)
        for i in range(claims):
            while self.comp[base + i].load() < vols[i]:
                token = (self.claimant[base + i].load()
                         if self.claimant is not None else 0)
                if token and _dead_pid_token(token):
                    d = steal_displacement(view.itasks, i)
                    tasks.extend(self._read_tasks(view.tail + d, vols[i]))
                    self.comp[base + i].store(vols[i])
                    break
                backoff.wait()
        return tasks


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
    #: Claimant-token array parallel to ``comp`` — a successful claim
    #: records who holds it (the thief's pid) before copying, so a
    #: crashed thief's claim can be identified and voided.  Always
    #: reserved (2 * comp_slots words is noise); only written in crash
    #: mode.
    claimant: SymArray | None = None

    exactly_once = True
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
            # The stealval tail field stores start % 2^19; shim buffers
            # must stay below that so the raw value is the buffer index.
            raise ValueError(f"capacity must be < 2^19, got {capacity}")
        alloc = SymmetricAllocator(heap, prefix)
        stealval = alloc.word("stealval")
        comp = alloc.array("comp", max_epochs * comp_slots)
        buffer = alloc.array("buffer", capacity * words_per_task)
        claimant = alloc.array("claimant", max_epochs * comp_slots)
        alloc.commit()
        return cls(stealval, comp, buffer, capacity, words_per_task,
                   max_epochs, comp_slots, claimant)

    @property
    def lock_word(self) -> SymWord:
        """The owner's swap-to-locked is SWS's only lock."""
        return self.stealval


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


class _TailSplitWords(_MpTaskBuffer):
    """The words both views of a ``[tail, split)`` queue address."""

    def _bind(self, heap: MpHeap, layout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)

    def has_work(self) -> bool:
        """Does ``[tail, split)`` hold tasks?  Two seqlock reads."""
        return self.split.load_seq() - self.tail.load_seq() > 0


class _TailSplitThief(_TailSplitWords):
    """Thief side of a ``[tail, split)`` queue: no damping, so the
    tracker is never consulted."""

    #: Crash-mode range-intent hook (see :class:`MpSwsThief`).
    intent = None

    def arm_crash(self, intent) -> None:
        """Crash regime: record steal intents."""
        self.intent = intent

    def try_steal(self, tracker: DampingTracker, victim: int):
        """One attempt: ``(status, claimed)``; ``LOCKED_ABORT`` when the
        queue lock outlasted the spin budget."""
        res = self.steal()
        if res.claimed:
            return StealStatus.STOLEN, res.claimed
        return (StealStatus.EMPTY if res.empty
                else StealStatus.LOCKED_ABORT), ()

    def scavenge(self) -> list:
        """Absorb a dead owner's shared section ``[tail, split)``."""
        t, s = self.tail.load(), self.split.load()
        if s <= t:
            return []
        tasks = self._read_tasks(t, s - t)
        self.tail.store(s)
        return tasks


class MpSdcQueue(_TailSplitWords, SdcShimCore):
    """Owner-side SDC (lock-based) queue over cross-process atomics.

    The lock word carries this process's *pid* as its token, so any
    contender can detect a SIGKILLed holder and take the lock over with
    one race-free ``compare_swap(holder, token)``.  The queue state
    under a broken SDC lock is benign: the six-step critical sections
    only ever advance ``tail``/``split`` after reading, so a takeover
    mid-section re-reads consistent words (at worst the same block is
    read twice — a duplicate, never a loss).
    """

    dead_holder = staticmethod(_dead_pid_token)

    def __init__(self, heap: MpHeap, layout: SdcQueueLayout) -> None:
        self._bind(heap, layout)
        self.nfilled = 0
        self.lock = heap.ref(layout.lock)
        self.lock_token = os.getpid()
        self._init_protocol()


class MpSdcThief(_TailSplitThief):
    """Thief-side view of an mp SDC queue."""

    #: Lock spins before an attempt gives up as ``LOCKED_ABORT``.
    max_spins = 200

    def __init__(self, heap: MpHeap, layout: SdcQueueLayout) -> None:
        self._bind(heap, layout)
        self.lock = heap.ref(layout.lock)

    def steal(self) -> ShimStealResult:
        """One lock-protected steal-half attempt."""
        return sdc_steal_once(
            self.lock, self.tail, self.split, self._read_tasks,
            self.max_spins, token=os.getpid(), dead_holder=_dead_pid_token,
            intent=self.intent,
        )

    def scavenge(self) -> list:
        """Take the lock (over a dead holder if need be), then absorb."""
        token = os.getpid()
        backoff = Backoff(sleep_s=1e-5, max_sleep_s=1e-3, deadline_s=30.0)
        while True:
            holder = self.lock.compare_swap(0, token)
            if holder == 0:
                break
            if (_dead_pid_token(holder)
                    and self.lock.compare_swap(holder, token) == holder):
                break
            backoff.wait()
        try:
            return super().scavenge()
        finally:
            self.lock.store(0)


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
    exactly_once = True
    owner_class = MpSdcQueue
    thief_class = MpSdcThief

    @property
    def lock_word(self) -> SymWord:
        return self.lock


class MpFfMultQueue(_TailSplitWords, FfMultShimCore):
    """Owner-side fence-free multiplicity queue over shared memory.

    No lock word at all: the owner repairs the tail and absorbs the
    shared remainder with plain stores — across threads or address
    spaces a stale thief store can re-expose consumed indices, producing
    the duplicates the at-least-once contract allows (the hammers check
    set-coverage, not partition).
    """

    def __init__(self, heap: MpHeap, layout: FfMultQueueLayout) -> None:
        self._bind(heap, layout)
        self.nfilled = 0
        self._init_protocol()


class MpFfMultThief(_TailSplitThief):
    """Thief-side view of an mp ff-mult queue (no atomic RMW at all)."""

    def __init__(self, heap: MpHeap, layout: FfMultQueueLayout) -> None:
        self._bind(heap, layout)

    def steal(self) -> ShimStealResult:
        """One fence-free attempt: two plain reads, one plain store."""
        return ffmult_steal_once(self.tail, self.split, self._read_tasks)


@dataclass(frozen=True)
class FfMultQueueLayout(_TailSplitLayout):
    """Picklable symmetric-heap footprint of one mp ff-mult queue."""

    tail: SymWord
    split: SymWord
    buffer: SymArray
    capacity: int
    words_per_task: int = 1

    #: Racing thieves may hand a task out twice: the PE driver's
    #: created/completed books cannot close over it.
    WORDS = ("tail", "split")
    exactly_once = False
    owner_class = MpFfMultQueue
    thief_class = MpFfMultThief


#: Protocol name -> layout: the one place a name turns into code.  The
#: registry's ``Protocol.mp_impl`` names an entry; the PE driver and the
#: serving feeders take the ``exactly_once`` ones.
LAYOUTS = {
    "sws": SwsQueueLayout,
    "sdc": SdcQueueLayout,
    "ff-mult": FfMultQueueLayout,
}


def layout_class(impl: str):
    """``LAYOUTS[impl]``, or a ValueError naming the choices."""
    try:
        return LAYOUTS[impl]
    except KeyError:
        raise ValueError(
            f"impl must be {'|'.join(LAYOUTS)}, got {impl!r}") from None


@contextmanager
def in_process_queue(impl: str, tasks):
    """An owner queue of ``impl`` holding ``tasks``, on a heap of this
    process only — the threads backend's substrate.

    The heap's lifetime is the :class:`~repro.mp.fleet.Fleet`'s, with no
    child ever spawned: it is unlinked when the ``with`` block exits,
    however it exits.
    """
    tasks = list(tasks)
    with Fleet(f"{impl} queue", layout_class(impl), 1,
               max(1, len(tasks))) as fleet:
        queue = fleet.layouts[0].owner(fleet.heap)
        queue.push_all(tasks)
        yield queue


# ======================================================================
# The cross-process hammer (repro.threads.protocol.hammer races threads)
# ======================================================================

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
    """Race harness: owner in this process, N thief *processes*.

    Returns ``(per-thief loot, owner-kept tasks)``.  For the
    exactly-once protocols (``sws``, ``sdc``) their disjoint union must
    equal ``tasks`` exactly — the shim conservation contract, now under
    genuine hardware preemption across address spaces.  For ``ff-mult``
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
    with Fleet("mp hammer", layout_class(impl), 1, len(tasks),
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
