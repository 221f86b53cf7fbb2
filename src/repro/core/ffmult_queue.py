"""Fence-free work-stealing deque with multiplicity (Castañeda & Piña).

The relaxed protocol from PAPERS.md: the steal path uses **no atomic
operations at all** — a thief discovers work with a plain metadata read,
copies exactly one task with a plain get, and advances the tail with a
plain (non-atomic) store.  Racing thieves, or a thief racing the owner's
``acquire``, can hand the same task out more than once; the deque's
contract is *at-least-once with multiplicity*: a task may execute k >= 1
times, but can never be lost.

Layout mirrors the SDC split queue: a circular buffer with a local
portion ``[split, head)`` (owner only) and a shared window
``[tail, split)``.  A successful steal is three one-sided communications,
all blocking:

1. get — fetch the ``[TAIL, SPLIT]`` metadata pair (one get; the words
   are contiguous);
2. get — copy the single task record at index ``tail``;
3. put — plain store of ``tail + 1`` (racy by design: a stale store may
   *regress* the tail and re-expose consumed tasks — duplicates, not
   losses).

**Why nothing is ever lost.**  The tail only moves past an index ``i``
when (a) a thief that copied task ``i`` stores ``i + 1``, or (b) the
owner repairs an overshoot by moving the tail *down* to ``split`` —
never skipping an unconsumed index upward.  Indices at or above
``split`` are local and owner-executed.  So every released task is
consumed at least once; racy interleavings only add extra consumers.

**Duplicate accounting.**  Every handout (a thief's tail store, or the
owner popping an index) bumps a per-index claim count in system-side
bookkeeping; the second and later claims of one task instance increment
the victim's ``dup_handouts`` counter *at handout time* — before the
duplicate can execute — so Mattern-style termination detection stays
safe when workers report ``spawned + dup_handouts`` as their production
count, and the books close as ``executed == spawned + dup_handouts``.
Enqueueing a fresh task at a reused absolute index resets that index's
claim history (a new instance is not a duplicate of the old one).

**Slot-reuse safety.**  Space is reclaimed only below the *floor*
``F = min(tail, split, every in-flight thief snapshot)``.  A thief
registers interest before its metadata get is issued (the conservative
current floor — the NIC captures the tail at apply time, which can be no
lower), narrows it to the observed tail, and releases it only after its
tail store has applied.  F is therefore non-decreasing, and the owner's
overflow guard ``head - F <= qsize`` keeps enqueues from overwriting a
slot any thief may still copy.
"""

from __future__ import annotations

from typing import Generator

from ..fabric.errors import ProtocolError
from ..runtime.task import Task
from ..shmem.api import ShmemCtx
from .config import QueueConfig
from .results import StealResult, StealStatus
from .split_queue import SplitQueue, SplitQueueSystem
from .steal_half import share_half

# Metadata word offsets (TAIL and SPLIT contiguous so the thief's
# discovery is a single get).
TAIL = 0
SPLIT = 1
META_WORDS = 2

META_REGION = "ffmq.meta"
TASK_REGION = "ffmq.tasks"


class FfMultQueue(SplitQueue):
    """Per-PE handle: owner-side queue ops + the fence-free steal.

    Like SDC the split lives in symmetric memory; ``reclaim_tail`` trails
    the reclaim *floor* (see the module docstring) instead of a
    completion array — there is none.
    """

    tag = "ffmult"
    meta_region = META_REGION
    task_region = TASK_REGION
    index_names = ("reclaim", "floor", "split", "head")
    #: ``oracle_check`` reads the reclaim floor, which every thief's
    #: in-flight registration moves from *its* process: nothing local
    #: witnesses the change, so the oracle checks this queue every event.
    oracle_owner_local = False
    #: A thief may copy a slot an ``acquire`` took back (a booked
    #: duplicate), so it must hold that slot's current task.
    write_through = True

    # ------------------------------------------------------------------
    # owner-local index views
    # ------------------------------------------------------------------
    @property
    def stealable(self) -> int:
        """Tasks in the shared window (clamped: a stale thief store can
        transiently push the tail past the split)."""
        meta = self._meta
        return max(0, meta[SPLIT] - meta[TAIL])

    @property
    def dup_handouts(self) -> int:
        """Duplicate handouts charged to this queue (monotone)."""
        return self.system.dups[self.rank]

    def _indices(self) -> tuple[int, ...]:
        floor = self.system.current_floor(self.rank)
        return self.reclaim_tail, floor, self._meta[SPLIT], self.head

    # ------------------------------------------------------------------
    # owner operations (local, no communication)
    # ------------------------------------------------------------------
    def push(self, tasks: list[Task]) -> None:
        """Append tasks at the head of the local portion; a fresh
        instance starts its index's claim history over."""
        claims = self.system.claims[self.rank]
        for index in range(self.head, self.head + len(tasks)):
            claims.pop(index, None)
        super().push(tasks)

    def pop(self) -> Task:
        """Pop the newest local task, booked as a handout like a steal: a
        re-privatized task that a stale thief also copied must charge a
        duplicate to exactly one side, and the symmetric claim count does
        that for any ordering."""
        task = super().pop()
        self.system.note_handout(self.rank, self.head)
        return task

    def release(self) -> Generator:
        """Expose half of the local portion to thieves.

        Plain local stores, like SDC's release (this generator never
        yields).  Only valid when the shared window is empty; an overshot
        tail (a stale thief store that ran past the split) is repaired
        *first*, so any still in-flight store writes at most the old
        split and can never jump the new window.
        """
        if self.stealable != 0:
            raise ProtocolError("ff-mult release requires an empty shared window")
        nshare = share_half(self.local_count)
        if nshare:
            self._expose(nshare)
            split = self._meta[SPLIT]
            if self._meta[TAIL] != split:
                self.pe.local_store(META_REGION, TAIL, split)
            self.pe.local_store(META_REGION, SPLIT, split + nshare)
        return nshare
        yield  # unreachable: makes this a generator, per the queue contract

    def acquire(self) -> Generator:
        """Move half of the shared window back to local.

        No lock to take (there is none), so this generator never yields.
        An overshot tail is repaired instead.  Returns the number of
        tasks re-privatized.
        """
        meta = self._meta
        split = meta[SPLIT]
        tail = meta[TAIL]
        ntake = 0
        if tail > split:
            self.pe.local_store(META_REGION, TAIL, split)
        elif split > tail:
            ntake = share_half(split - tail)
            self._withdraw(ntake)
            self.pe.local_store(META_REGION, SPLIT, split - ntake)
        return ntake
        yield  # unreachable: makes this a generator, per the queue contract

    def progress(self) -> int:
        """Advance the reclaim floor; returns slots freed.

        Also prunes claim-count entries now strictly below the floor: no
        in-flight thief can touch them (the floor is the minimum over
        every registration) and the owner can only enqueue above it.
        """
        floor = self.system.current_floor(self.rank)
        reclaimed = floor - self.reclaim_tail
        if reclaimed <= 0:
            return 0
        claims = self.system.claims[self.rank]
        for index in range(self.reclaim_tail, floor):
            claims.pop(index, None)
        self.reclaim_tail = floor
        return reclaimed

    # ------------------------------------------------------------------
    # thief operation (remote, 3 plain communications, no atomics)
    # ------------------------------------------------------------------
    def steal(self, victim: int) -> Generator:
        """Attempt to steal one task from ``victim`` — fence-free.

        Yields fabric requests; returns a :class:`StealResult`.  An
        empty window costs a single get.  The registration brackets keep
        the victim's reclaim floor below every index this thief may
        still read (see the module docstring).
        """
        if victim == self.rank:
            raise ProtocolError("a PE cannot steal from itself")
        pe = self.pe
        system = self.system
        token = system.register_inflight(victim, system.current_floor(victim))
        try:
            # (1) discover: one get of the contiguous [TAIL, SPLIT] pair
            tail, split = yield self._get_words(self.rank, victim, META_REGION, TAIL, 2)
            if split - tail <= 0:
                return self.empty_results[victim]
            system.update_inflight(victim, token, tail)
            # (2) copy exactly one task record
            ts = self._tsize
            slot = tail % self._qsize
            data = yield pe.get_bytes(victim, TASK_REGION, slot * ts, ts)
            # (3) plain tail store — racy by design.  Blocking, so the
            # in-flight registration outlives the store's apply.
            yield pe.put_word(victim, META_REGION, TAIL, tail + 1)
            system.note_handout(victim, tail)
        finally:
            system.unregister_inflight(victim, token)
        return StealResult(StealStatus.STOLEN, victim, 1, [bytes(data)])

    def oracle_check(self) -> None:
        """Per-event invariants, valid at any event boundary."""
        self._check_indices(self._violation)


class FfMultQueueSystem(SplitQueueSystem):
    """Symmetric regions plus the duplicate-accounting bookkeeping.

    The claim counts, duplicate tallies, and in-flight steal snapshots
    are *simulator bookkeeping* — a real implementation carries none of
    this state (that is the protocol's entire point); here it exists so
    the oracles can check the at-least-once contract at zero fabric
    cost.
    """

    queue_class = FfMultQueue

    def __init__(self, ctx: ShmemCtx, config: QueueConfig | None = None) -> None:
        super().__init__(ctx, config)
        npes = ctx.npes
        #: Per-victim map of absolute index -> times handed out.
        self.claims: list[dict[int, int]] = [dict() for _ in range(npes)]
        #: Per-victim duplicate handouts (claims beyond the first).
        self.dups: list[int] = [0] * npes
        # In-flight steal registrations: token -> lowest index the thief
        # may still touch.  Keyed per victim rank.
        self._inflight: list[dict[int, int]] = [dict() for _ in range(npes)]
        self._next_token = 0

    def _alloc_meta(self, heap, cfg) -> None:
        heap.alloc_words(META_REGION, META_WORDS)

    # ------------------------------------------------------------------
    # bookkeeping (zero fabric cost)
    # ------------------------------------------------------------------
    def current_floor(self, rank: int) -> int:
        """The reclaim floor of ``rank``'s queue right now."""
        tail, split = self.ctx.heap.load_words(rank, META_REGION, TAIL, 2)
        floor = min(tail, split)
        inflight = self._inflight[rank]
        if inflight:
            floor = min(floor, min(inflight.values()))
        return floor

    def register_inflight(self, victim: int, floor: int) -> int:
        """Pin the reclaim floor at ``floor`` for one in-flight steal."""
        token = self._next_token
        self._next_token += 1
        self._inflight[victim][token] = floor
        return token

    def update_inflight(self, victim: int, token: int, index: int) -> None:
        """Narrow a registration to the tail index actually observed."""
        self._inflight[victim][token] = index

    def unregister_inflight(self, victim: int, token: int) -> None:
        """Drop a registration (steal finished, aborted, or empty)."""
        self._inflight[victim].pop(token, None)

    def note_handout(self, victim: int, index: int) -> None:
        """Record one handout of ``victim``'s task at ``index``; the second
        and later handouts of one instance are duplicates, tallied now."""
        count = self.claims[victim].get(index, 0) + 1
        self.claims[victim][index] = count
        if count > 1:
            self.dups[victim] += 1
