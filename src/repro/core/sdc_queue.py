"""Baseline Scioto SDC task queue (paper §3).

"Split Queue, Deferred Copies, Aborting Steals": each PE owns a circular
buffer split into a *local* portion ``[split, head)`` that only the owner
touches, and a *shared* portion ``[tail, split)`` that remote thieves may
steal from under a spinlock.  A steal is the six-communication sequence
of Figure 2:

1. atomic swap — acquire the remote queue lock
2. get — fetch the metadata block (tail, seq, split)
3. put — write back the advanced tail (and steal sequence number)
4. atomic swap — release the lock
5. get — copy the stolen task records
6. non-blocking atomic — deferred-copy completion notification

Steps 1–5 block; step 6 is passive.  Thieves finding the lock held poll
the metadata read-only and *abort early* if the shared portion empties
(the "aborting steals" optimization), rather than committing to the lock.

Metadata indices are stored as monotonically increasing absolute counts;
buffer slots are ``index % qsize``.  Completion uses a per-steal slot ring
(indexed by the steal sequence number) so the owner reclaims space strictly
in claim order, which keeps reclamation safe when completions arrive out
of order — this mirrors Scioto's deferred-copy steal records.
"""

from __future__ import annotations

from typing import Generator

from ..fabric.errors import FabricTimeoutError, ProtocolError
from .results import StealResult, StealStatus
from .split_queue import SplitQueue, SplitQueueSystem
from .steal_half import share_half

# Metadata word offsets (LOCK must be its own word; TAIL..SPLIT contiguous
# so the thief's metadata fetch is a single get and the thief's write of
# TAIL+SEQ is a single put).
LOCK = 0
TAIL = 1
SEQ = 2
SPLIT = 3
META_WORDS = 4

META_REGION = "sdcq.meta"
COMP_REGION = "sdcq.comp"
TASK_REGION = "sdcq.tasks"

_UNLOCKED = 0
_LOCKED = 1

# Lease-mode lock word: (rank + 1) in the high bits, the acquisition
# timestamp in virtual nanoseconds in the low 48 — never 0 (= unlocked),
# unique per (locker, time), and enough timestamp range for ~3 days of
# virtual time.  Only used when QueueConfig.sdc_lock_lease is set.
_TS_BITS = 48
_TS_MASK = (1 << _TS_BITS) - 1


def _lease_word(rank: int, now: float) -> int:
    return ((rank + 1) << _TS_BITS) | (int(now * 1e9) & _TS_MASK)


def _lease_expired(word: int, now: float, lease: float) -> bool:
    return now - (word & _TS_MASK) / 1e9 >= lease


class SdcQueue(SplitQueue):
    """Per-PE handle: owner-side queue ops + thief-side steal protocol.

    The split lives in symmetric memory (thieves read it), so the owner
    reads it — like the claim tail thieves advance — through ``_meta``.
    """

    tag = "sdc"
    meta_region = META_REGION
    oracle_comp_region = COMP_REGION
    task_region = TASK_REGION
    index_names = ("reclaim", "tail", "split", "head")

    def __init__(self, system: SplitQueueSystem, rank: int) -> None:
        super().__init__(system, rank)
        self.rseq = 0        # next steal sequence number to reclaim
        #: Expired swap-lock leases this PE broke open (lease mode only).
        self.locks_recovered = 0

    # ------------------------------------------------------------------
    # owner-local index views
    # ------------------------------------------------------------------
    @property
    def stealable(self) -> int:
        """Tasks in the shared (stealable) portion."""
        meta = self._meta
        return meta[SPLIT] - meta[TAIL]

    def _indices(self) -> tuple[int, ...]:
        meta = self._meta
        return self.reclaim_tail, meta[TAIL], meta[SPLIT], self.head

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def release(self) -> Generator:
        """Expose half of the local portion to thieves (paper §3.1).

        Only valid when the shared portion is empty; returns the number of
        tasks exposed.  Lock-free and purely local (this generator never
        yields): a concurrent thief either sees the old (empty) split and
        aborts, or the new one and steals.
        """
        if self.stealable != 0:
            raise ProtocolError("SDC release requires an empty shared portion")
        nshare = share_half(self.local_count)
        if nshare:
            self._expose(nshare)
            self.pe.local_store(META_REGION, SPLIT, self._meta[SPLIT] + nshare)
        return nshare
        yield  # unreachable: makes this a generator, per the queue contract

    def acquire(self) -> Generator:
        """Move half of the shared portion back to local (paper §3.1).

        Requires the queue lock because thieves read SPLIT and write TAIL
        under it.  Yields fabric requests (lock spin uses local atomics
        plus a backoff delay).  Returns the number of tasks reacquired.

        In lease mode the owner locks with its own lease word and breaks
        an expired thief lease in its spin loop — a fail-stopped thief
        must not wedge the owner out of its own queue.
        """
        lease = self.cfg.sdc_lock_lease
        my = _LOCKED
        while True:
            if lease is not None:
                now = self.system.ctx.now
                my = _lease_word(self.rank, now)
            old = self.pe.local_cas(META_REGION, LOCK, _UNLOCKED, my)
            if old == _UNLOCKED:
                break
            if lease is not None and _lease_expired(old, now, lease):
                if self.pe.local_cas(META_REGION, LOCK, old, my) == old:
                    self.locks_recovered += 1
                    break
            yield self._lock_pause
        try:
            avail = self.stealable
            if avail <= 0:
                return 0
            ntake = share_half(avail)
            self._withdraw(ntake)
            self.pe.local_store(META_REGION, SPLIT, self._meta[SPLIT] - ntake)
            return ntake
        finally:
            # CAS, not store: a contender that broke our (expired) lease
            # now owns the word and must not be clobbered.  (Without a
            # lease nobody can, and the CAS always succeeds.)
            self.pe.local_cas(META_REGION, LOCK, my, _UNLOCKED)

    def progress(self) -> int:
        """Reclaim space behind completed steals, in claim order.

        Scans the completion ring from the oldest outstanding steal; each
        completed slot advances the reclaim tail by its stolen count.
        Returns the number of tasks reclaimed.
        """
        reclaimed = 0
        comp = self._comp
        qsize = self._qsize
        while True:
            slot = self.rseq % qsize
            n = comp[slot]
            if n == 0:
                break
            self.pe.local_store(COMP_REGION, slot, 0)
            self.reclaim_tail += n
            self.rseq += 1
            reclaimed += n
        if self.reclaim_tail > self._meta[TAIL]:
            raise ProtocolError(
                f"PE {self.rank}: reclaim tail {self.reclaim_tail} passed claim tail"
            )
        return reclaimed

    # ------------------------------------------------------------------
    # thief operation (remote, 6 communications on the success path)
    # ------------------------------------------------------------------
    def steal(self, victim: int, max_lock_polls: int = 8) -> Generator:
        """Attempt to steal half of ``victim``'s shared tasks.

        Yields fabric requests; returns a :class:`StealResult`.  The
        communication sequence on success is exactly the Figure-2 SDC
        column; an empty queue discovered under the lock costs three
        communications (lock, metadata get, unlock); a held lock is polled
        read-only with early abort once the queue drains.

        ``QueueConfig.sdc_lock_lease`` picks the lock-word strategy of
        step 1, and nothing else.  Classic (``None``): swap in 1.  Leased:
        CAS in a (rank, timestamp) word, and CAS a word observed held
        past its lease deadline back out — recovering a queue wedged by a
        fail-stopped (or timed-out) holder; the unlock is then a CAS too,
        so a holder whose lease was broken cannot take the lock back from
        whoever broke it.  In either mode a fabric timeout inside the
        critical section releases the lock best-effort before
        propagating, and the post-claim block fetch is retried before the
        claimed tasks are abandoned (:meth:`SplitQueue._fetch_block`).
        """
        rank = self.rank
        if victim == rank:
            raise ProtocolError("a PE cannot steal from itself")
        pe = self.pe
        cfg = self.cfg
        lease = cfg.sdc_lock_lease
        ctx = self.system.ctx
        swap = self._amo_swap
        get_words = self._get_words
        my = _LOCKED
        polls = 0
        while True:
            # (1) acquire remote queue lock
            if lease is None:
                old = yield swap(rank, victim, META_REGION, LOCK, _LOCKED)
                if old == _UNLOCKED:
                    break
            else:
                my = _lease_word(rank, ctx.now)
                old = yield pe.atomic_compare_swap(victim, META_REGION, LOCK, _UNLOCKED, my)
                if old == _UNLOCKED:
                    break
                if _lease_expired(old, ctx.now, lease):
                    prev = yield pe.atomic_compare_swap(victim, META_REGION, LOCK, old, my)
                    if prev == old:
                        self.locks_recovered += 1
                        break
                    # raced: fall through and poll like a held lock
            # Lock held: poll metadata read-only; abort if work vanished.
            tail, _seq, split = yield get_words(rank, victim, META_REGION, TAIL, 3)
            if split - tail <= 0:
                return self.empty_results[victim]
            polls += 1
            if polls >= max_lock_polls:
                return StealResult(StealStatus.LOCKED_ABORT, victim)
            yield self._lock_pause

        ntasks = 0
        try:
            # (2) fetch metadata: tail, seq, split in one get
            tail, seq, split = yield get_words(rank, victim, META_REGION, TAIL, 3)
            avail = split - tail
            if avail > 0:
                ntasks = 1 if cfg.sdc_steal == "one" else max(1, avail // 2)
                # (3) advance tail and bump the steal sequence in one put
                yield pe.put_words(victim, META_REGION, TAIL, [tail + ntasks, seq + 1])
        except FabricTimeoutError:
            yield from self._unlock(victim, my)
            raise
        # (4) release the lock ((3') of the 3-communication empty path)
        if lease is None:
            yield swap(rank, victim, META_REGION, LOCK, _UNLOCKED)
        else:
            yield from self._unlock(victim, my)
        if ntasks == 0:
            return self.empty_results[victim]
        # (5) copy the stolen block (two gets when it wraps the buffer)
        # (6) deferred-copy completion: non-blocking atomic into the ring
        result = yield from self._take_claimed(victim, tail, ntasks, seq % cfg.qsize)
        return result

    def _unlock(self, victim: int, my: int) -> Generator:
        """Best-effort release of a lock taken with word ``my``.

        CAS, not swap: if another PE already broke our lease we must not
        steal the lock back from it.  A timeout here is swallowed — the
        lease deadline guarantees some contender eventually recovers.
        """
        try:
            yield self.pe.atomic_compare_swap(victim, META_REGION, LOCK, my, _UNLOCKED)
        except FabricTimeoutError:
            pass

    # ------------------------------------------------------------------
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    def oracle_comp_expected(self) -> dict[int, int] | None:
        """SDC steal volumes are dynamic — no per-slot expectation.

        Returning ``None`` tells the oracle to apply only the generic
        transition rules (a slot is written once per steal, then cleared
        by the owner) plus the 1..qsize volume range.
        """
        return None

    def oracle_check(self) -> None:
        """Per-event invariants, valid at any event boundary."""
        self._check_indices(self._violation)
        lock = self._meta[LOCK]
        if self.cfg.sdc_lock_lease is None:
            if lock not in (_UNLOCKED, _LOCKED):
                raise self._violation(
                    "lock-word", f"lock word {lock:#x} is neither locked nor unlocked"
                )
        elif lock != _UNLOCKED:
            holder = (lock >> _TS_BITS) - 1
            if not 0 <= holder < self.system.ctx.npes:
                raise self._violation(
                    "lease-holder", f"lease word {lock:#x} names invalid holder {holder}"
                )


class SdcQueueSystem(SplitQueueSystem):
    """Allocates the symmetric regions for every PE's SDC queue."""

    queue_class = SdcQueue

    def _alloc_meta(self, heap, cfg) -> None:
        heap.alloc_words(META_REGION, META_WORDS)
        # One completion slot per queue slot bounds outstanding steals.
        heap.alloc_words(COMP_REGION, cfg.qsize)
