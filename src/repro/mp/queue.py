"""SWS and SDC stealval queues across real OS processes.

These bind the substrate-independent shim protocol cores
(:mod:`repro.threads.protocol` — the *same* release / acquire / claim /
completion logic the thread shims run, reusing
:class:`repro.core.stealval.StealValEpoch` verbatim) to shared-memory
words from :class:`~repro.mp.heap.MpHeap`.  The owner-side objects live
in the process that plays the PE owning the queue; thief-side views
(:class:`MpSwsThief`, :class:`MpSdcThief`) are cheap picklable handles
any other process can steal through.

Task payloads are tuples of 64-bit words (``words_per_task``), or bare
ints when ``words_per_task == 1``.  The *control* words (stealval,
completion array, SDC lock/tail/split) go through the striped-lock
atomic seam; the *task buffer* is a lock-free bulk data plane: a
claimed block is exclusively owned by the claiming thief, so the copy
is one contiguous ``read_block`` byte slice (two when the ring wraps)
decoded by :class:`~repro.threads.protocol.RecordCodec`, and the
owner's fill is one ``write_block`` into the not-yet-published region.

:func:`hammer_mp` mirrors :func:`repro.threads.queue_shim.hammer` with
thief *processes*: the owner runs in the calling process, N children
race claims against it, and the returned loot/kept partition must equal
the original task set exactly.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.steal_half import schedule, steal_displacement
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


@dataclass(frozen=True)
class SwsQueueLayout:
    """Picklable symmetric-heap footprint of one mp SWS queue."""

    stealval: SymWord
    comp: SymArray
    buffer: SymArray
    capacity: int
    words_per_task: int = 1
    max_epochs: int = 2
    comp_slots: int = DEFAULT_COMP_SLOTS
    #: Claimant-token array parallel to ``comp`` — a successful claim
    #: records who holds it (rank + 1) before copying, so a crashed
    #: thief's claim can be identified and voided.  Always reserved
    #: (2 * comp_slots words is noise); only written in crash mode.
    claimant: SymArray | None = None

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

    def owner(self, heap: MpHeap) -> "MpSwsQueue":
        """Owner-side queue object (construct in the owning process)."""
        return MpSwsQueue(heap, self)

    def thief(self, heap: MpHeap) -> "MpSwsThief":
        """Thief-side view (construct in any process)."""
        return MpSwsThief(heap, self)


class MpSwsQueue(_MpTaskBuffer, SwsShimCore):
    """Owner-side SWS queue state over cross-process atomics."""

    #: Dead-claimant oracle ``token -> bool`` (crash mode only): maps a
    #: claimant token recorded by ``sws_steal_once`` to "that process is
    #: dead".  The driver installs it; ``None`` keeps the historical
    #: wait-forever-on-completion behaviour.
    dead_claimant = None

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.nfilled = 0
        self.stealval = heap.ref(layout.stealval)
        self.comp = heap.slice(layout.comp)
        if layout.claimant is not None:
            self.claimant = heap.slice(layout.claimant)
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
        dead = self.dead_claimant
        if dead is None or self.claimant is None:
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
                if token and dead(token):
                    disp = steal_displacement(rec["itasks"], i)
                    self.owner_kept.extend(
                        self._read_tasks(rec["start"] + disp, vols[i])
                    )
                    self.comp[base + i].store(vols[i])
                    voided += 1
        return voided

    def push(self, task) -> bool:
        """Append one task's words at the fill cursor; False when full."""
        if self.nfilled >= self.capacity:
            return False
        wpt = self.words_per_task
        base = self.nfilled * wpt
        if wpt == 1:
            self._buf[base].store(task)
        else:
            if len(task) != wpt:
                raise ValueError(
                    f"task must be {wpt} words, got {len(task)}"
                )
            for j, word in enumerate(task):
                self._buf[base + j].store(word)
        self.nfilled += 1
        return True

    def push_all(self, tasks) -> int:
        """Append many tasks in one bulk write; returns how many fit.

        The fill region ``[nfilled, nfilled + fit)`` is unpublished
        (``release`` exposes it later via a locked stealval store), so
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


class MpSwsThief(_MpTaskBuffer):
    """Thief-side view: just enough shared words to claim blocks."""

    #: Crash-mode hooks (inert by default): a nonzero ``claim_token``
    #: (rank + 1) records ownership of each winning claim in the
    #: victim's claimant array; ``intent(start, vol)`` durably records
    #: the claimed buffer range before the copy so a thief crash after
    #: the completion signal is recoverable by the supervisor.
    claim_token: int = 0
    intent = None

    def __init__(self, heap: MpHeap, layout: SwsQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.stealval = heap.ref(layout.stealval)
        self.comp = heap.slice(layout.comp)
        self.comp_slots = layout.comp_slots
        self.claimant = (
            heap.slice(layout.claimant) if layout.claimant is not None
            else None
        )

    def steal(self) -> ShimStealResult:
        """One fused discover+claim attempt (single remote fetch-add)."""
        return sws_steal_once(
            self.stealval, self.comp, self.comp_slots, self._read_tasks,
            claimant=self.claimant if self.claim_token else None,
            claim_token=self.claim_token, intent=self.intent,
        )

    def probe(self) -> int:
        """Read-only stealval fetch (damping's empty-mode probe).

        Seqlock read: every stealval mutation goes through the locked
        word API (which bumps the shadow sequence), so the probe skips
        the stripe lock entirely.
        """
        return self.stealval.load_seq()


@dataclass(frozen=True)
class SdcQueueLayout:
    """Picklable symmetric-heap footprint of one mp SDC queue."""

    lock: SymWord
    tail: SymWord
    split: SymWord
    buffer: SymArray
    capacity: int
    words_per_task: int = 1

    @classmethod
    def reserve(
        cls,
        heap: MpHeap,
        prefix: str,
        capacity: int,
        words_per_task: int = 1,
    ) -> "SdcQueueLayout":
        """Lay the queue out on an unfrozen heap via the shmem allocator."""
        alloc = SymmetricAllocator(heap, prefix)
        lock = alloc.word("lock")
        tail = alloc.word("tail")
        split = alloc.word("split")
        buffer = alloc.array("buffer", capacity * words_per_task)
        alloc.commit()
        return cls(lock, tail, split, buffer, capacity, words_per_task)

    def owner(self, heap: MpHeap) -> "MpSdcQueue":
        """Owner-side queue object (construct in the owning process)."""
        return MpSdcQueue(heap, self)

    def thief(self, heap: MpHeap) -> "MpSdcThief":
        """Thief-side view (construct in any process)."""
        return MpSdcThief(heap, self)


def _dead_pid_token(token: int) -> bool:
    """Dead-holder oracle for pid lock tokens (SDC takeover path).

    The mp SDC lock word holds its owner's pid, so "is the holder dead"
    is a signal-0 probe.  Pid recycling within one run would mask a
    death; astronomically unlikely at these process counts and run
    lengths, and the cost would be a diagnosed stall, not corruption.
    """
    return not pid_alive(token)


class MpSdcQueue(_MpTaskBuffer, SdcShimCore):
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
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.nfilled = 0
        self.lock = heap.ref(layout.lock)
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)
        self.lock_token = os.getpid()
        self._init_protocol()

    push = MpSwsQueue.push
    push_all = MpSwsQueue.push_all


class MpSdcThief(_MpTaskBuffer):
    """Thief-side view of an mp SDC queue."""

    #: Crash-mode range-intent hook (see :class:`MpSwsThief`).
    intent = None

    def __init__(self, heap: MpHeap, layout: SdcQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.lock = heap.ref(layout.lock)
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)

    def steal(self, max_spins: int = 10_000) -> ShimStealResult:
        """One lock-protected steal-half attempt."""
        return sdc_steal_once(
            self.lock, self.tail, self.split, self._read_tasks, max_spins,
            token=os.getpid(), dead_holder=_dead_pid_token,
            intent=self.intent,
        )


@dataclass(frozen=True)
class FfMultQueueLayout:
    """Picklable symmetric-heap footprint of one mp ff-mult queue."""

    tail: SymWord
    split: SymWord
    buffer: SymArray
    capacity: int
    words_per_task: int = 1

    @classmethod
    def reserve(
        cls,
        heap: MpHeap,
        prefix: str,
        capacity: int,
        words_per_task: int = 1,
    ) -> "FfMultQueueLayout":
        """Lay the queue out on an unfrozen heap via the shmem allocator."""
        alloc = SymmetricAllocator(heap, prefix)
        tail = alloc.word("tail")
        split = alloc.word("split")
        buffer = alloc.array("buffer", capacity * words_per_task)
        alloc.commit()
        return cls(tail, split, buffer, capacity, words_per_task)

    def owner(self, heap: MpHeap) -> "MpFfMultQueue":
        """Owner-side queue object (construct in the owning process)."""
        return MpFfMultQueue(heap, self)

    def thief(self, heap: MpHeap) -> "MpFfMultThief":
        """Thief-side view (construct in any process)."""
        return MpFfMultThief(heap, self)


class MpFfMultQueue(_MpTaskBuffer, FfMultShimCore):
    """Owner-side fence-free multiplicity queue over shared memory.

    No lock word at all: the owner repairs the tail and absorbs the
    shared remainder with plain stores, exactly like the thread shim —
    across address spaces a stale thief store can still re-expose
    consumed indices, producing the duplicates the at-least-once
    contract allows (the hammer checks set-coverage, not partition).
    """

    def __init__(self, heap: MpHeap, layout: FfMultQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.nfilled = 0
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)
        self._init_protocol()

    push = MpSwsQueue.push
    push_all = MpSwsQueue.push_all


class MpFfMultThief(_MpTaskBuffer):
    """Thief-side view of an mp ff-mult queue (no atomic RMW at all)."""

    def __init__(self, heap: MpHeap, layout: FfMultQueueLayout) -> None:
        self._bind_buffer(heap, layout.buffer, layout.capacity,
                          layout.words_per_task)
        self.tail = heap.ref(layout.tail)
        self.split = heap.ref(layout.split)

    def steal(self) -> ShimStealResult:
        """One fence-free attempt: two plain reads, one plain store."""
        return ffmult_steal_once(self.tail, self.split, self._read_tasks)


# ======================================================================
# The cross-process hammer (mirror of repro.threads.queue_shim.hammer)
# ======================================================================

def _hammer_thief(idx, heap, layout, stop_addr, impl, stall_s) -> list:
    """Thief child: race claims until the owner raises the stop flag."""
    stop = heap.ref(stop_addr)
    thief = layout.thief(heap)
    loot: list = []
    backoff = Backoff(sleep_s=1e-6, max_sleep_s=1e-4, deadline_s=stall_s)
    while not stop.load_seq():
        res = (thief.steal(max_spins=100) if impl == "sdc"
               else thief.steal())
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
    layout_classes = {
        "sws": SwsQueueLayout,
        "sdc": SdcQueueLayout,
        "ff-mult": FfMultQueueLayout,
    }
    if impl not in layout_classes:
        raise ValueError(f"impl must be sws|sdc|ff-mult, got {impl!r}")
    with Fleet("mp hammer", layout_classes[impl], 1, len(tasks),
               ctl=("stop",)) as fleet:
        layout, stop_addr = fleet.layouts[0], fleet.ctl["stop"]
        queue = layout.owner(fleet.heap)
        queue.stall_s = stall_s
        queue.push_all(tasks)
        for i in range(nthieves):
            fleet.spawn(i, _hammer_thief, layout, stop_addr, impl, stall_s)
        _, kept = race(queue, 0, max(1, len(tasks) // releases), acquires)
        fleet.heap.ref(stop_addr).store(1)
        fleet.collect(join_timeout)
        loot: list[list[int]] = [[] for _ in range(nthieves)]
        for idx, claimed in fleet.reports:
            loot[idx] = claimed
        return loot, kept
