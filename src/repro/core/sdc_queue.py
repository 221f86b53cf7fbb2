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

from dataclasses import dataclass
from typing import Generator

from ..fabric.engine import Delay
from ..fabric.errors import FabricTimeoutError, OracleViolation, ProtocolError
from ..shmem.api import ShmemCtx
from .config import QueueConfig
from .results import StealResult, StealStatus
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


class SdcQueueSystem:
    """Allocates the symmetric regions for every PE's SDC queue."""

    def __init__(self, ctx: ShmemCtx, config: QueueConfig | None = None) -> None:
        self.ctx = ctx
        self.config = config or QueueConfig()
        cfg = self.config
        ctx.heap.alloc_words(META_REGION, META_WORDS)
        # One completion slot per queue slot bounds outstanding steals.
        ctx.heap.alloc_words(COMP_REGION, cfg.qsize)
        ctx.heap.alloc_bytes(TASK_REGION, cfg.qsize * cfg.task_size)

    def handle(self, rank: int) -> "SdcQueue":
        """Owner/thief handle bound to PE ``rank``."""
        return SdcQueue(self, rank)


class SdcQueue:
    """Per-PE handle: owner-side queue ops + thief-side steal protocol."""

    driver_family = "sdc"

    def __init__(self, system: SdcQueueSystem, rank: int) -> None:
        self.system = system
        self.cfg = system.config
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        # Owner-local bookkeeping (absolute indices).
        self.head = 0        # next enqueue slot
        self.ctail = 0       # reclaim point: space below this is free
        self.rseq = 0        # next steal sequence number to reclaim
        #: Expired swap-lock leases this PE broke open (lease mode only).
        self.locks_recovered = 0
        # Owner-visible state is always read from symmetric memory so that
        # thief updates (TAIL) are observed; the direct views below alias
        # the same live heap rows remote ops mutate, skipping per-access
        # bounds checks.  Word *writes* still go through ``self.pe`` so
        # waiter notification semantics are preserved.
        heap = system.ctx.heap
        self._meta = heap.word_view(rank, META_REGION)
        self._comp = heap.word_view(rank, COMP_REGION)
        self._tasks = heap.byte_view(rank, TASK_REGION)
        self._qsize = self.cfg.qsize
        self._tsize = self.cfg.task_size

    # ------------------------------------------------------------------
    # owner-local index views
    # ------------------------------------------------------------------
    def _tail(self) -> int:
        return self._meta[TAIL]

    def _split(self) -> int:
        return self._meta[SPLIT]

    @property
    def local_count(self) -> int:
        """Tasks in the local (owner-only) portion."""
        return self.head - self._meta[SPLIT]

    @property
    def shared_count(self) -> int:
        """Tasks in the shared (stealable) portion."""
        meta = self._meta
        return meta[SPLIT] - meta[TAIL]

    @property
    def in_use(self) -> int:
        """Occupied slots, including stolen-but-not-yet-reclaimed ones."""
        return self.head - self.ctail

    @property
    def free_slots(self) -> int:
        """Slots available for enqueueing."""
        return self.cfg.qsize - self.in_use

    def _slot(self, index: int) -> int:
        return index % self.cfg.qsize

    def _record_addr(self, index: int) -> int:
        return self._slot(index) * self.cfg.task_size

    # ------------------------------------------------------------------
    # owner operations (local, no communication)
    # ------------------------------------------------------------------
    def enqueue(self, record: bytes) -> None:
        """Append one serialized task at the head of the local portion."""
        ts = self._tsize
        if len(record) != ts:
            raise ProtocolError(
                f"record of {len(record)} bytes; queue expects {ts}"
            )
        qsize = self._qsize
        if self.head - self.ctail >= qsize:
            self.progress()
            if self.head - self.ctail >= qsize:
                raise ProtocolError(
                    f"PE {self.rank}: SDC queue overflow (qsize={qsize})"
                )
        addr = (self.head % qsize) * ts
        self._tasks[addr : addr + ts] = record
        self.head += 1

    def dequeue(self) -> bytes | None:
        """Pop the newest local task (LIFO); ``None`` when local is empty."""
        head = self.head
        if head <= self._meta[SPLIT]:
            return None
        self.head = head = head - 1
        ts = self._tsize
        addr = (head % self._qsize) * ts
        return bytes(self._tasks[addr : addr + ts])

    def release(self) -> int:
        """Expose half of the local portion to thieves (paper §3.1).

        Only valid when the shared portion is empty; returns the number of
        tasks exposed.  Lock-free: a concurrent thief either sees the old
        (empty) split and aborts, or the new one and steals.
        """
        if self.shared_count != 0:
            raise ProtocolError("SDC release requires an empty shared portion")
        nshare = share_half(self.local_count)
        if nshare == 0:
            return 0
        self.pe.local_store(META_REGION, SPLIT, self._split() + nshare)
        return nshare

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
        if lease is None:
            while self.pe.local_cas(META_REGION, LOCK, _UNLOCKED, _LOCKED) != _UNLOCKED:
                yield Delay(self.cfg.lock_backoff)
            my = _UNLOCKED  # unused in classic mode
        else:
            while True:
                now = self.system.ctx.now
                my = _lease_word(self.rank, now)
                old = self.pe.local_cas(META_REGION, LOCK, _UNLOCKED, my)
                if old == _UNLOCKED:
                    break
                if _lease_expired(old, now, lease):
                    if self.pe.local_cas(META_REGION, LOCK, old, my) == old:
                        self.locks_recovered += 1
                        break
                yield Delay(self.cfg.lock_backoff)
        try:
            avail = self.shared_count
            if avail <= 0:
                return 0
            ntake = share_half(avail)
            self.pe.local_store(META_REGION, SPLIT, self._split() - ntake)
            return ntake
        finally:
            if lease is None:
                self.pe.local_store(META_REGION, LOCK, _UNLOCKED)
            else:
                # CAS, not store: a contender that broke our (expired)
                # lease now owns the word and must not be clobbered.
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
            self.ctail += n
            self.rseq += 1
            reclaimed += n
        if self.ctail > self._meta[TAIL]:
            raise ProtocolError(
                f"PE {self.rank}: reclaim tail {self.ctail} passed claim tail"
            )
        return reclaimed

    def seed(self, records: list[bytes]) -> None:
        """Initial task placement before the run starts (no timing)."""
        for r in records:
            self.enqueue(r)

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
        """
        if victim == self.rank:
            raise ProtocolError("a PE cannot steal from itself")
        if self.cfg.sdc_lock_lease is not None:
            return (yield from self._steal_leased(victim, max_lock_polls))
        pe = self.pe
        polls = 0
        while True:
            # (1) acquire remote queue lock
            old = yield pe.atomic_swap(victim, META_REGION, LOCK, _LOCKED)
            if old == _UNLOCKED:
                break
            # Lock held: poll metadata read-only; abort if work vanished.
            words = yield pe.get_words(victim, META_REGION, TAIL, 3)
            tail, _seq, split = words
            if split - tail <= 0:
                return StealResult(StealStatus.EMPTY, victim)
            polls += 1
            if polls >= max_lock_polls:
                return StealResult(StealStatus.LOCKED_ABORT, victim)
            yield Delay(self.cfg.lock_backoff)

        # (2) fetch metadata: tail, seq, split in one get
        words = yield pe.get_words(victim, META_REGION, TAIL, 3)
        tail, seq, split = words
        avail = split - tail
        if avail <= 0:
            # (3') release lock and abort: the 3-communication empty path
            yield pe.atomic_swap(victim, META_REGION, LOCK, _UNLOCKED)
            return StealResult(StealStatus.EMPTY, victim)

        ntasks = 1 if self.cfg.sdc_steal == "one" else max(1, avail // 2)
        # (3) advance tail and bump the steal sequence in one put
        yield pe.put_words(victim, META_REGION, TAIL, [tail + ntasks, seq + 1])
        # (4) release the lock
        yield pe.atomic_swap(victim, META_REGION, LOCK, _UNLOCKED)
        # (5) copy the stolen block (two gets when it wraps the buffer)
        data = yield from self._fetch_block(victim, tail, ntasks)
        # (6) deferred-copy completion: non-blocking atomic into the ring
        yield from self._notify_completion(victim, seq % self.cfg.qsize, ntasks)

        ts = self.cfg.task_size
        records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
        return StealResult(StealStatus.STOLEN, victim, ntasks, records)

    def _notify_completion(self, victim: int, slot: int, ntasks: int) -> Generator:
        """Deliver the deferred-copy completion count.

        Reliable fabric: Scioto's passive non-blocking atomic.  Fault
        mode: the victim reclaims space strictly in claim order, so one
        dropped completion would pin every later steal's slots until the
        queue overflows — use an acked fetch-add retried on timeout
        ("timed out implies never applied" keeps the count exact).
        Exhausted retries mean the victim fail-stopped; its queue dies
        with it.
        """
        if self.system.ctx.faults is None:
            yield self.pe.atomic_add_nb(victim, COMP_REGION, slot, ntasks)
            return
        for _attempt in range(self.cfg.steal_fetch_retries + 1):
            try:
                yield self.pe.atomic_fetch_add(victim, COMP_REGION, slot, ntasks)
                return
            except FabricTimeoutError:
                continue

    def _fetch_block(self, victim: int, start_index: int, ntasks: int) -> Generator:
        """Blocking copy of ``ntasks`` records starting at absolute index."""
        ts = self.cfg.task_size
        qsize = self.cfg.qsize
        slot = start_index % qsize
        if slot + ntasks <= qsize:
            data = yield self.pe.get_bytes(victim, TASK_REGION, slot * ts, ntasks * ts)
            return data
        first = qsize - slot
        part1 = yield self.pe.get_bytes(victim, TASK_REGION, slot * ts, first * ts)
        part2 = yield self.pe.get_bytes(victim, TASK_REGION, 0, (ntasks - first) * ts)
        return part1 + part2

    # ------------------------------------------------------------------
    # lease-mode steal (fault recovery for a wedged/dead lock holder)
    # ------------------------------------------------------------------
    def _steal_leased(self, victim: int, max_lock_polls: int) -> Generator:
        """Steal with a leased swap-lock (``QueueConfig.sdc_lock_lease``).

        The protocol is the classic six-communication sequence, with two
        changes for survival under faults:

        * the lock is taken by CAS of a (rank, timestamp) lease word, and
          a lock observed held past its lease deadline is *broken* by
          CAS'ing the stale word out — recovering queues wedged by a
          fail-stopped thief;
        * a fabric timeout inside the critical section releases the lock
          best-effort before propagating, and the post-claim block fetch
          is retried ``steal_fetch_retries`` times before the claimed
          tasks are abandoned (the victim's memory is gone).
        """
        pe = self.pe
        ctx = self.system.ctx
        lease = self.cfg.sdc_lock_lease
        polls = 0
        while True:
            my = _lease_word(self.rank, ctx.now)
            old = yield pe.atomic_compare_swap(victim, META_REGION, LOCK, _UNLOCKED, my)
            if old == _UNLOCKED:
                break
            if _lease_expired(old, ctx.now, lease):
                prev = yield pe.atomic_compare_swap(victim, META_REGION, LOCK, old, my)
                if prev == old:
                    self.locks_recovered += 1
                    break
                old = prev  # raced: fall through and poll like a held lock
            words = yield pe.get_words(victim, META_REGION, TAIL, 3)
            tail, _seq, split = words
            if split - tail <= 0:
                return StealResult(StealStatus.EMPTY, victim)
            polls += 1
            if polls >= max_lock_polls:
                return StealResult(StealStatus.LOCKED_ABORT, victim)
            yield Delay(self.cfg.lock_backoff)

        try:
            words = yield pe.get_words(victim, META_REGION, TAIL, 3)
            tail, seq, split = words
            avail = split - tail
            if avail <= 0:
                yield from self._lease_unlock(victim, my)
                return StealResult(StealStatus.EMPTY, victim)
            ntasks = 1 if self.cfg.sdc_steal == "one" else max(1, avail // 2)
            yield pe.put_words(victim, META_REGION, TAIL, [tail + ntasks, seq + 1])
        except FabricTimeoutError:
            yield from self._lease_unlock(victim, my)
            raise
        yield from self._lease_unlock(victim, my)

        data = yield from self._fetch_block_retry(victim, tail, ntasks)
        if data is None:
            return StealResult(StealStatus.ABANDONED, victim, ntasks)
        yield from self._notify_completion(victim, seq % self.cfg.qsize, ntasks)

        ts = self.cfg.task_size
        records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
        return StealResult(StealStatus.STOLEN, victim, ntasks, records)

    def _lease_unlock(self, victim: int, my: int) -> Generator:
        """Best-effort release of a leased lock.

        CAS, not swap: if another PE already broke our lease we must not
        steal the lock back from it.  A timeout here is swallowed — the
        lease deadline guarantees some contender eventually recovers.
        """
        try:
            yield self.pe.atomic_compare_swap(victim, META_REGION, LOCK, my, _UNLOCKED)
        except FabricTimeoutError:
            pass

    def _fetch_block_retry(self, victim: int, start_index: int, ntasks: int) -> Generator:
        """Retrying block fetch; ``None`` once retries are exhausted."""
        attempts = self.cfg.steal_fetch_retries + 1
        for i in range(attempts):
            try:
                data = yield from self._fetch_block(victim, start_index, ntasks)
                return data
            except FabricTimeoutError:
                if i == attempts - 1:
                    return None
        return None

    # ------------------------------------------------------------------
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    #: Completion words the oracle tracks (write journal + live view).
    oracle_comp_region = COMP_REGION
    #: ``oracle_check`` reads only this PE's own heap rows and fields.
    oracle_owner_local = True

    def oracle_comp_expected(self) -> dict[int, int] | None:
        """SDC steal volumes are dynamic — no per-slot expectation.

        Returning ``None`` tells the oracle to apply only the generic
        transition rules (a slot is written once per steal, then cleared
        by the owner) plus the 1..qsize volume range.
        """
        return None

    def oracle_check(self) -> None:
        """Per-event invariants, valid at any event boundary."""
        tail, split = self._tail(), self._split()
        if not (self.ctail <= tail <= split <= self.head):
            raise OracleViolation(
                "sdc-index-order",
                f"ctail={self.ctail} tail={tail} split={split} head={self.head}",
                pe=self.rank,
            )
        if self.head - self.ctail > self.cfg.qsize:
            raise OracleViolation(
                "sdc-capacity",
                f"in_use={self.head - self.ctail} > qsize={self.cfg.qsize}",
                pe=self.rank,
            )
        lock = self.pe.local_load(META_REGION, LOCK)
        if self.cfg.sdc_lock_lease is None:
            if lock not in (_UNLOCKED, _LOCKED):
                raise OracleViolation(
                    "sdc-lock-word",
                    f"lock word {lock:#x} is neither locked nor unlocked",
                    pe=self.rank,
                )
        elif lock != _UNLOCKED:
            holder = (lock >> _TS_BITS) - 1
            if not 0 <= holder < self.system.ctx.npes:
                raise OracleViolation(
                    "sdc-lease-holder",
                    f"lease word {lock:#x} names invalid holder {holder}",
                    pe=self.rank,
                )

    def invariants(self) -> None:
        """Raise :class:`ProtocolError` if owner-visible state is inconsistent."""
        tail, split = self._tail(), self._split()
        if not (self.ctail <= tail <= split <= self.head):
            raise ProtocolError(
                f"PE {self.rank}: index order violated "
                f"ctail={self.ctail} tail={tail} split={split} head={self.head}"
            )
        if self.head - self.ctail > self.cfg.qsize:
            raise ProtocolError(f"PE {self.rank}: queue over capacity")
