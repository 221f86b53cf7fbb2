"""SWS task queue: structured-atomic work stealing (paper §4).

The owner advertises its shared portion through a single packed 64-bit
*stealval* (:mod:`repro.core.stealval`).  A thief's entire
discover-and-claim step is one remote ``fetch_add(1 << 40)``:

* the add increments the attempted-steals counter, atomically claiming
  the next block of the steal-half schedule;
* the fetched old value tells the thief the allotment size, the tail
  slot, and how many blocks were claimed before it — enough to compute
  its block's size and location with no further communication.

A successful steal is three one-sided communications (two blocking):
fetch-add, get of the task block, and a passive non-blocking atomic into
the victim's completion array.  A failed attempt is a single fetch-add.

Completion epochs (§4.2): the owner versions allotments into epochs, each
with its own completion-array row, so *acquire*/*release* need not wait
for in-flight steals — they close the current epoch's record, open the
next epoch (re-initializing its row), and let old completions drain
asynchronously.  Space is reclaimed strictly in claim order by folding
the finished prefix of the oldest outstanding record (Figure 5).

The owner manipulates its own stealval with processor atomics (swap to
lock, store to publish); thieves racing with the swap observe the locked
sentinel in their fetched value and abort, and their stray increments are
obliterated by the owner's publishing store — that is what makes the
lock-free protocol safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Generator

from ..fabric.engine import Delay
from ..fabric.errors import FabricTimeoutError, OracleViolation, ProtocolError
from ..shmem.api import ShmemCtx
from .config import QueueConfig
from .results import StealResult, StealStatus
from .steal_half import (
    max_steals,
    schedule,
    schedule_tuple,
    share_half,
    steal_displacement,
    steal_volume,
)
from .stealval import StealValEpoch, max_initial_tasks

META_REGION = "swsq.meta"
COMP_REGION = "swsq.comp"
TASK_REGION = "swsq.tasks"

STEALVAL = 0  # word offset of the stealval within META_REGION

# Stealval field constants, hoisted to module level for the inline decode
# in ``shared_remaining`` (called once per executed task by the worker's
# batch loop — the hottest property in the SWS runtime).
_EPOCH_SHIFT = StealValEpoch.EPOCH_SHIFT
_ITASK_SHIFT = StealValEpoch.ITASK_SHIFT
_ASTEAL_SHIFT = StealValEpoch.ASTEAL_SHIFT
_MAX_ITASKS = StealValEpoch.MAX_ITASKS
_EPOCH_LOCKED = StealValEpoch.EPOCH_LOCKED


@dataclass
class EpochRecord:
    """Owner-side bookkeeping for one allotment epoch.

    ``claims`` is meaningful once the record is closed (the owner swapped
    the stealval away); while open, the live claim count is read from the
    stealval itself.
    """

    epoch: int
    start: int          # absolute index of the allotment's first task
    itasks: int         # advertised allotment size
    claims: int = 0     # settled at close: min(asteals, schedule length)
    folded: int = 0     # steals already folded into the reclaim tail
    open: bool = True


class SwsQueueSystem:
    """Allocates the symmetric regions for every PE's SWS queue."""

    def __init__(self, ctx: ShmemCtx, config: QueueConfig | None = None) -> None:
        self.ctx = ctx
        self.config = config or QueueConfig()
        cfg = self.config
        self.itask_cap = max_initial_tasks(ctx.npes)
        ctx.heap.alloc_words(META_REGION, 1, fill=StealValEpoch.pack(0, 0, 0, 0))
        ctx.heap.alloc_words(COMP_REGION, cfg.max_epochs * cfg.comp_slots)
        ctx.heap.alloc_bytes(TASK_REGION, cfg.qsize * cfg.task_size)

    def handle(self, rank: int) -> "SwsQueue":
        """Owner/thief handle bound to PE ``rank``."""
        return SwsQueue(self, rank)


class SwsQueue:
    """Per-PE handle: owner-side queue ops + the 3-communication steal."""

    driver_family = "sws"

    def __init__(self, system: SwsQueueSystem, rank: int) -> None:
        self.system = system
        self.cfg = system.config
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        # Owner-local bookkeeping (absolute indices; slots are idx % qsize).
        self.head = 0          # next enqueue slot
        self.split = 0         # boundary: shared [tail..split), local [split..head)
        self.reclaim_tail = 0  # everything below is reusable buffer space
        self.epoch = 0
        # Outstanding allotment records, oldest first.  The initial record
        # is the empty epoch-0 allotment the fresh stealval advertises.
        self.records: deque[EpochRecord] = deque([EpochRecord(0, 0, 0)])
        #: Cumulative time the owner spent polling for a free epoch (the
        #: cost the completion-epoch design exists to minimize).
        self.epoch_wait_time = 0.0
        #: Monotone count of stealval publications (oracle: identifies a
        #: publication uniquely even when epoch/itasks/tail repeat).
        self.publications = 0
        # Direct heap views for the owner's own rows.  Reads through a view
        # skip the (pe, region, bounds) checks of the generic heap API; the
        # task-byte view is also written through (byte regions carry no
        # waiters).  All word *mutations* still go through ``self.pe`` so
        # waiter notification semantics are preserved.
        heap = system.ctx.heap
        self._meta = heap.word_view(rank, META_REGION)
        self._comp = heap.word_view(rank, COMP_REGION)
        self._tasks = heap.byte_view(rank, TASK_REGION)
        self._qsize = self.cfg.qsize
        self._tsize = self.cfg.task_size

    # ------------------------------------------------------------------
    # owner-local views
    # ------------------------------------------------------------------
    def _load_stealval(self) -> int:
        return self._meta[STEALVAL]

    @property
    def local_count(self) -> int:
        """Tasks in the local (owner-only) portion."""
        return self.head - self.split

    @property
    def shared_remaining(self) -> int:
        """Unclaimed tasks still advertised in the current allotment."""
        # Inline stealval decode (equivalent to StealValEpoch.unpack, minus
        # the dataclass construction) — this property gates every batch of
        # the worker's execute loop.
        word = self._meta[STEALVAL]
        if (word >> _EPOCH_SHIFT) & _EPOCH_LOCKED == _EPOCH_LOCKED:
            return 0
        itasks = (word >> _ITASK_SHIFT) & _MAX_ITASKS
        asteals = word >> _ASTEAL_SHIFT
        claims = max_steals(itasks)
        if asteals < claims:
            claims = asteals
        return itasks - steal_displacement(itasks, claims)

    @property
    def in_use(self) -> int:
        """Occupied slots, including claimed-but-unreclaimed ones."""
        return self.head - self.reclaim_tail

    @property
    def free_slots(self) -> int:
        """Slots available for enqueueing."""
        return self.cfg.qsize - self.in_use

    def _slot(self, index: int) -> int:
        return index % self.cfg.qsize

    def _record_addr(self, index: int) -> int:
        return self._slot(index) * self.cfg.task_size

    def _comp_offset(self, epoch: int, ordinal: int) -> int:
        return epoch * self.cfg.comp_slots + ordinal

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def enqueue(self, record: bytes) -> None:
        """Append one serialized task at the head of the local portion."""
        ts = self._tsize
        if len(record) != ts:
            raise ProtocolError(
                f"record of {len(record)} bytes; queue expects {ts}"
            )
        qsize = self._qsize
        if self.head - self.reclaim_tail >= qsize:
            self.progress()
            if self.head - self.reclaim_tail >= qsize:
                raise ProtocolError(
                    f"PE {self.rank}: SWS queue overflow (qsize={qsize})"
                )
        addr = (self.head % qsize) * ts
        self._tasks[addr : addr + ts] = record
        self.head += 1

    def dequeue(self) -> bytes | None:
        """Pop the newest local task (LIFO); ``None`` when local is empty."""
        head = self.head
        if head <= self.split:
            return None
        self.head = head = head - 1
        ts = self._tsize
        addr = (head % self._qsize) * ts
        return bytes(self._tasks[addr : addr + ts])

    def seed(self, records: list[bytes]) -> None:
        """Initial task placement before the run starts."""
        for r in records:
            self.enqueue(r)

    def _close_current(self) -> tuple[int, int]:
        """Lock the stealval and settle the open record.

        Returns ``(rem_start, rem)``: the absolute start and length of the
        current allotment's unclaimed remainder.  Owner-side processor
        atomics only — no communication.
        """
        old = self.pe.local_swap(META_REGION, STEALVAL, StealValEpoch.locked_word())
        view = StealValEpoch.unpack(old)
        rec = self.records[-1]
        if view.locked or not rec.open:
            raise ProtocolError(f"PE {self.rank}: stealval already locked")
        if view.itasks != rec.itasks or view.epoch != rec.epoch:
            raise ProtocolError(
                f"PE {self.rank}: stealval/record mismatch "
                f"({view.itasks},{view.epoch}) vs ({rec.itasks},{rec.epoch})"
            )
        claims = min(view.asteals, max_steals(view.itasks))
        rec.claims = claims
        rec.open = False
        disp = steal_displacement(rec.itasks, claims)
        return rec.start + disp, rec.itasks - disp

    def _open_next(self, start: int, itasks: int) -> Generator:
        """Open the next epoch advertising ``itasks`` tasks from ``start``.

        Polls (with progress folding) until the target epoch slot has no
        outstanding record — the §4.2 acquire-time wait that two epochs
        make rare.
        """
        next_epoch = (self.epoch + 1) % self.cfg.max_epochs
        t0 = self.system.ctx.engine.now
        while any(r.epoch == next_epoch for r in self.records):
            self.progress()
            if not any(r.epoch == next_epoch for r in self.records):
                break
            yield Delay(self.cfg.lock_backoff)
        self.epoch_wait_time += self.system.ctx.engine.now - t0
        # Re-initialize the epoch's completion row before re-enabling steals.
        base = self._comp_offset(next_epoch, 0)
        for i in range(self.cfg.comp_slots):
            self.pe.local_store(COMP_REGION, base + i, 0)
        self.epoch = next_epoch
        self.records.append(EpochRecord(next_epoch, start, itasks))
        self.publications += 1
        self.pe.local_store(
            META_REGION,
            STEALVAL,
            StealValEpoch.pack(0, next_epoch, itasks, self._slot(start)),
        )

    def release(self) -> Generator:
        """Expose half of the local portion to thieves (paper §4.1).

        Closes the current allotment (folding any unclaimed remainder into
        the new one) and opens the next epoch.  Returns the number of
        newly exposed tasks.
        """
        rem_start, rem = self._close_current()
        nshare = share_half(self.local_count)
        cap = min(self.system.itask_cap, self.cfg.qsize)
        nshare = max(0, min(nshare, cap - rem))
        self.split += nshare
        yield from self._open_next(rem_start, rem + nshare)
        return nshare

    def acquire(self) -> Generator:
        """Move half of the unclaimed remainder into the local portion.

        Steals are disabled (locked sentinel) for the duration; in-flight
        claimed steals keep draining into their epoch's completion row.
        Returns the number of tasks reacquired.
        """
        rem_start, rem = self._close_current()
        ntake = share_half(rem)
        self.split -= ntake
        if self.split < rem_start + (rem - ntake):
            raise ProtocolError(f"PE {self.rank}: acquire moved split below allotment")
        yield from self._open_next(rem_start, rem - ntake)
        return ntake

    def progress(self) -> int:
        """Fold finished steals (oldest first) to reclaim buffer space.

        Walks the outstanding records in claim order; a record's steal
        ``i`` is finished once its completion slot equals the schedule's
        volume for ``i``.  Folding stops at the first still-claimed block
        (Figure 5: a claimed block pins everything behind it).  Returns
        the number of task slots reclaimed.
        """
        reclaimed = 0
        comp = self._comp
        comp_slots = self.cfg.comp_slots
        while self.records:
            rec = self.records[0]
            if rec.open:
                word = self._meta[STEALVAL]
                if (word >> _EPOCH_SHIFT) & _EPOCH_LOCKED == _EPOCH_LOCKED:
                    raise ProtocolError(
                        f"PE {self.rank}: open record but stealval locked"
                    )
                claims = min(word >> _ASTEAL_SHIFT, max_steals(rec.itasks))
            else:
                claims = rec.claims
            vols = schedule_tuple(rec.itasks)
            base = rec.epoch * comp_slots
            while rec.folded < claims:
                expected = vols[rec.folded]
                got = comp[base + rec.folded]
                if got == 0:
                    break
                if got != expected:
                    raise ProtocolError(
                        f"PE {self.rank}: completion slot {rec.folded} of epoch "
                        f"{rec.epoch} holds {got}, expected {expected}"
                    )
                self.reclaim_tail += expected
                rec.folded += 1
                reclaimed += expected
            # A closed, fully folded record is done; the deque may go
            # empty transiently while release/acquire reopens the queue.
            if not rec.open and rec.folded == claims:
                self.records.popleft()
                continue
            break
        return reclaimed

    # ------------------------------------------------------------------
    # thief operations
    # ------------------------------------------------------------------
    def steal(self, victim: int) -> Generator:
        """Full-mode steal: fetch-add claim, task copy, passive completion.

        Yields fabric requests; returns a :class:`StealResult`.
        """
        if victim == self.rank:
            raise ProtocolError("a PE cannot steal from itself")
        pe = self.pe
        # (1) discover AND claim in one atomic round trip
        old = yield pe.atomic_fetch_add(
            victim, META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT
        )
        view = StealValEpoch.unpack(old)
        if view.locked:
            return StealResult(StealStatus.DISABLED, victim)
        ntasks = steal_volume(view.itasks, view.asteals)
        if ntasks == 0:
            return StealResult(StealStatus.EMPTY, victim)
        disp = steal_displacement(view.itasks, view.asteals)
        # (2) copy the claimed block (start computed locally, §4 example).
        # The claim already happened, so under fault injection a timed-out
        # get is retried rather than surfaced: giving up here would leak
        # claimed tasks.  Only when the victim's memory is truly gone
        # (retries exhausted — it fail-stopped) is the block abandoned.
        data = None
        for attempt in range(self.cfg.steal_fetch_retries + 1):
            try:
                data = yield from self._fetch_block(victim, view.tail + disp, ntasks)
                break
            except FabricTimeoutError:
                if attempt == self.cfg.steal_fetch_retries:
                    # No completion notification: the claimed records must
                    # stay pinned in the (dead) victim's buffer.
                    return StealResult(StealStatus.ABANDONED, victim, ntasks)
        # (3) passive completion notification into this epoch's row
        yield from self._notify_completion(
            victim, self._comp_offset(view.epoch, view.asteals), ntasks
        )
        ts = self.cfg.task_size
        records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
        return StealResult(StealStatus.STOLEN, victim, ntasks, records)

    def _notify_completion(self, victim: int, offset: int, ntasks: int) -> Generator:
        """Deliver the completion count into the victim's COMP row.

        Reliable fabric: the paper's passive non-blocking atomic.  Fault
        mode: the victim's epoch turnover *waits* on this word, so one
        dropped non-blocking add would wedge it forever — use an acked
        fetch-add instead, retried on timeout ("timed out implies never
        applied" keeps the count exact).  Exhausting the retries means
        the victim fail-stopped; its queue dies with it.
        """
        if self.system.ctx.faults is None:
            yield self.pe.atomic_add_nb(victim, COMP_REGION, offset, ntasks)
            return
        for _attempt in range(self.cfg.steal_fetch_retries + 1):
            try:
                yield self.pe.atomic_fetch_add(victim, COMP_REGION, offset, ntasks)
                return
            except FabricTimeoutError:
                continue

    def probe(self, victim: int) -> Generator:
        """Empty-mode probe (steal damping, §4.3): read-only atomic fetch.

        Returns the decoded stealval view; costs a single communication
        and never claims work.
        """
        word = yield self.pe.atomic_fetch(victim, META_REGION, STEALVAL)
        return StealValEpoch.unpack(word)

    def _fetch_block(self, victim: int, start_slot: int, ntasks: int) -> Generator:
        """Blocking copy of ``ntasks`` records from the victim's buffer."""
        ts = self.cfg.task_size
        qsize = self.cfg.qsize
        slot = start_slot % qsize
        if slot + ntasks <= qsize:
            data = yield self.pe.get_bytes(victim, TASK_REGION, slot * ts, ntasks * ts)
            return data
        first = qsize - slot
        part1 = yield self.pe.get_bytes(victim, TASK_REGION, slot * ts, first * ts)
        part2 = yield self.pe.get_bytes(victim, TASK_REGION, 0, (ntasks - first) * ts)
        return part1 + part2

    # ------------------------------------------------------------------
    # debugging / validation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Owner-visible state as a plain dict (debugging/analysis).

        Includes the decoded live stealval, index positions, and one
        entry per outstanding allotment record.
        """
        view = StealValEpoch.unpack(self._load_stealval())
        return {
            "rank": self.rank,
            "head": self.head,
            "split": self.split,
            "reclaim_tail": self.reclaim_tail,
            "local_count": self.local_count,
            "shared_remaining": self.shared_remaining,
            "free_slots": self.free_slots,
            "epoch": self.epoch,
            "stealval": {
                "asteals": view.asteals,
                "epoch": view.epoch,
                "itasks": view.itasks,
                "tail": view.tail,
                "locked": view.locked,
            },
            "records": [
                {
                    "epoch": r.epoch,
                    "start": r.start,
                    "itasks": r.itasks,
                    "claims": r.claims,
                    "folded": r.folded,
                    "open": r.open,
                }
                for r in self.records
            ],
        }

    # ------------------------------------------------------------------
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    #: Completion words the oracle tracks (write journal + live view).
    oracle_comp_region = COMP_REGION
    #: ``oracle_check`` reads only this PE's own heap rows and fields.
    oracle_owner_local = True

    def oracle_comp_expected(self) -> dict[int, int]:
        """Legal nonzero value per completion offset, from live records.

        Only offsets belonging to an outstanding allotment record may be
        written; slot ``j`` of a record's row may only ever hold the
        steal-half schedule's volume for steal ``j``.  Anything else —
        including a doubled value from two thieves claiming the same
        block — is a protocol violation.
        """
        expected: dict[int, int] = {}
        for rec in self.records:
            for j, vol in enumerate(schedule(rec.itasks)):
                expected[self._comp_offset(rec.epoch, j)] = vol
        return expected

    def oracle_check(self) -> None:
        """Per-event invariants, valid at *any* event boundary.

        Unlike :meth:`invariants` (end-of-run strictness), this tolerates
        the mid-management window where the stealval is locked and no
        record is open — but everything it does assert must hold after
        every single engine event.
        """
        if not (self.reclaim_tail <= self.split <= self.head):
            raise OracleViolation(
                "sws-index-order",
                f"reclaim={self.reclaim_tail} split={self.split} head={self.head}",
                pe=self.rank,
            )
        if self.head - self.reclaim_tail > self.cfg.qsize:
            raise OracleViolation(
                "sws-capacity",
                f"in_use={self.head - self.reclaim_tail} > qsize={self.cfg.qsize}",
                pe=self.rank,
            )
        if sum(r.open for r in self.records) > 1:
            raise OracleViolation(
                "sws-records", "more than one open allotment record", pe=self.rank
            )
        view = StealValEpoch.unpack(self._load_stealval())
        open_rec = self.records[-1] if self.records and self.records[-1].open else None
        if view.locked:
            if open_rec is not None:
                raise OracleViolation(
                    "sws-locked-open",
                    "stealval locked while a record is open", pe=self.rank,
                )
            if view.itasks or view.tail:
                raise OracleViolation(
                    "sws-locked-fields",
                    f"locked stealval carries itasks={view.itasks} "
                    f"tail={view.tail}", pe=self.rank,
                )
            return
        if open_rec is None:
            raise OracleViolation(
                "sws-unlocked-closed",
                "stealval live but no open allotment record", pe=self.rank,
            )
        cap = min(self.system.itask_cap, self.cfg.qsize)
        if view.itasks > cap:
            raise OracleViolation(
                "sws-itasks-range",
                f"advertised itasks={view.itasks} exceeds cap {cap}", pe=self.rank,
            )
        if view.tail >= self.cfg.qsize:
            raise OracleViolation(
                "sws-tail-range",
                f"tail={view.tail} outside qsize={self.cfg.qsize}", pe=self.rank,
            )
        if (view.epoch, view.itasks, view.tail) != (
            open_rec.epoch, open_rec.itasks, self._slot(open_rec.start)
        ):
            raise OracleViolation(
                "sws-stealval-record",
                f"stealval ({view.epoch},{view.itasks},{view.tail}) disagrees "
                f"with open record ({open_rec.epoch},{open_rec.itasks},"
                f"{self._slot(open_rec.start)})", pe=self.rank,
            )
        if open_rec.start + open_rec.itasks != self.split:
            raise OracleViolation(
                "sws-allotment-split",
                f"allotment end {open_rec.start + open_rec.itasks} != "
                f"split {self.split}", pe=self.rank,
            )
        for rec in self.records:
            vols = schedule(rec.itasks)
            claims = rec.claims if not rec.open else len(vols)
            if not (0 <= rec.folded <= claims <= len(vols)):
                raise OracleViolation(
                    "sws-epoch-accounting",
                    f"epoch {rec.epoch}: folded={rec.folded} claims={claims} "
                    f"schedule={len(vols)}", pe=self.rank,
                )

    def invariants(self) -> None:
        """Raise :class:`ProtocolError` on inconsistent owner state."""
        if not (self.reclaim_tail <= self.split <= self.head):
            raise ProtocolError(
                f"PE {self.rank}: index order violated reclaim={self.reclaim_tail} "
                f"split={self.split} head={self.head}"
            )
        if self.head - self.reclaim_tail > self.cfg.qsize:
            raise ProtocolError(f"PE {self.rank}: queue over capacity")
        if not self.records:
            raise ProtocolError(f"PE {self.rank}: no allotment record")
        if sum(r.open for r in self.records) != 1 or not self.records[-1].open:
            raise ProtocolError(f"PE {self.rank}: exactly the newest record must be open")
