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
from dataclasses import asdict, dataclass
from typing import Generator

from ..fabric.engine import Delay
from ..fabric.errors import ProtocolError
from .results import StealResult, StealStatus
from .split_queue import SplitQueue, SplitQueueSystem
from .steal_half import (
    max_steals,
    schedule,
    schedule_tuple,
    share_half,
    steal_displacement,
)
from .stealval import StealValEpoch, max_initial_tasks, owner_remainder, thief_claim

META_REGION = "swsq.meta"
COMP_REGION = "swsq.comp"
TASK_REGION = "swsq.tasks"

STEALVAL = 0  # word offset of the stealval within the metadata region

# Stealval field constants, hoisted to module level for the inline decode
# in ``SwsQueue.stealable`` (called once per batch by the worker's
# execute loop — the hottest property in the SWS runtime).
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


class StealvalQueue(SplitQueue):
    """What the Figure-3 and Figure-4 stealval queues share.

    The thief path — the fused fetch-add claim and the probe — and the
    shape of release / acquire are the same for both layouts; they reach
    the layout through :attr:`codec` and the two management hooks a
    subclass provides: ``_close()`` (a generator: disable steals, settle
    the current allotment, return its unclaimed ``(start, length)``) and
    ``_open(start, itasks)`` (a generator: advertise a new allotment).
    """

    release_merges_shared = True

    def __init__(self, system: SplitQueueSystem, rank: int) -> None:
        super().__init__(system, rank)
        self.split = 0         # boundary: shared [tail..split), local [split..head)
        #: Monotone count of stealval publications (oracle: identifies a
        #: publication uniquely even when epoch/itasks/tail repeat).
        self.publications = 0

    def _load_stealval(self) -> int:
        return self._meta[STEALVAL]

    def _comp_offset(self, epoch: int, ordinal: int) -> int:
        return epoch * self.cfg.comp_slots + ordinal

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def release(self) -> Generator:
        """Expose half of the local portion to thieves (paper §4.1).

        Closes the current allotment (folding any unclaimed remainder into
        the new one) and opens the next.  Returns the number of newly
        exposed tasks.
        """
        rem_start, rem = yield from self._close()
        nshare = share_half(self.local_count)
        cap = min(self.system.itask_cap, self.cfg.qsize)
        nshare = max(0, min(nshare, cap - rem))
        self.split += nshare
        yield from self._open(rem_start, rem + nshare)
        return nshare

    def acquire(self) -> Generator:
        """Move half of the unclaimed remainder into the local portion.

        Steals are disabled for the duration; what happens to in-flight
        claimed steals meanwhile is the layout's business (``_close``).
        Returns the number of tasks reacquired.
        """
        rem_start, rem = yield from self._close()
        ntake = share_half(rem)
        self.split -= ntake
        if self.split < rem_start + (rem - ntake):
            raise ProtocolError(f"PE {self.rank}: acquire moved split below allotment")
        yield from self._open(rem_start, rem - ntake)
        return ntake

    # ------------------------------------------------------------------
    # thief operations
    # ------------------------------------------------------------------
    def steal(self, victim: int) -> Generator:
        """Full-mode steal: fetch-add claim, task copy, passive completion.

        Yields fabric requests; returns a :class:`StealResult`.
        """
        if victim == self.rank:
            raise ProtocolError("a PE cannot steal from itself")
        codec = self.codec
        # (1) discover AND claim in one atomic round trip
        old = yield self.pe.atomic_fetch_add(
            victim, self.meta_region, STEALVAL, codec.ASTEAL_UNIT
        )
        view = codec.unpack(old)
        if view.locked:
            return StealResult(StealStatus.DISABLED, victim)
        ntasks, disp = thief_claim(view.itasks, view.asteals)
        if ntasks == 0:
            return StealResult(StealStatus.EMPTY, victim)
        # (2) copy the claimed block (start computed locally, §4 example)
        # (3) passive completion notification into this epoch's row
        result = yield from self._take_claimed(
            victim, view.tail + disp, ntasks,
            self._comp_offset(view.epoch, view.asteals),
        )
        return result

    def probe(self, victim: int) -> Generator:
        """Empty-mode probe (steal damping, §4.3): read-only atomic fetch.

        Returns the decoded stealval view; costs a single communication
        and never claims work.
        """
        word = yield self.pe.atomic_fetch(victim, self.meta_region, STEALVAL)
        return self.codec.unpack(word)

    # ------------------------------------------------------------------
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    def _check_fields(self, view) -> bool:
        """Field ranges of a decoded live stealval, for ``oracle_check``.

        Returns False when steals are disabled (the word then carries
        nothing further to check).
        """
        if view.locked:
            if view.itasks or view.tail:
                raise self._violation(
                    "locked-fields",
                    f"disabled stealval carries itasks={view.itasks} "
                    f"tail={view.tail}",
                )
            return False
        cap = min(self.system.itask_cap, self.cfg.qsize)
        if view.itasks > cap:
            raise self._violation(
                "itasks-range", f"advertised itasks={view.itasks} exceeds cap {cap}"
            )
        if view.tail >= self.cfg.qsize:
            raise self._violation(
                "tail-range", f"tail={view.tail} outside qsize={self.cfg.qsize}"
            )
        return True


class SwsQueue(StealvalQueue):
    """Per-PE handle: owner-side queue ops + the 3-communication steal."""

    tag = "sws"
    codec = StealValEpoch
    meta_region = META_REGION
    oracle_comp_region = COMP_REGION
    task_region = TASK_REGION

    def __init__(self, system: SplitQueueSystem, rank: int) -> None:
        super().__init__(system, rank)
        self.epoch = 0
        # Outstanding allotment records, oldest first.  The initial record
        # is the empty epoch-0 allotment the fresh stealval advertises.
        self.records: deque[EpochRecord] = deque([EpochRecord(0, 0, 0)])
        #: Cumulative time the owner spent polling for a free epoch (the
        #: cost the completion-epoch design exists to minimize).
        self.epoch_wait_time = 0.0

    @property
    def stealable(self) -> int:
        """Unclaimed tasks still advertised in the current allotment."""
        # Inline stealval decode (equivalent to StealValEpoch.unpack plus
        # owner_remainder, minus the dataclass construction) — this
        # property gates every batch of the worker's execute loop.
        word = self._meta[STEALVAL]
        if (word >> _EPOCH_SHIFT) & _EPOCH_LOCKED == _EPOCH_LOCKED:
            return 0
        itasks = (word >> _ITASK_SHIFT) & _MAX_ITASKS
        asteals = word >> _ASTEAL_SHIFT
        claims = max_steals(itasks)
        if asteals < claims:
            claims = asteals
        return itasks - steal_displacement(itasks, claims)

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def _close(self) -> Generator:
        """Lock the stealval and settle the open record.

        Returns ``(rem_start, rem)``: the absolute start and length of the
        current allotment's unclaimed remainder.  Owner-side processor
        atomics only — no communication and no waiting for in-flight
        steals (they keep draining into their epoch's completion row),
        so this generator never yields.
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
        rec.claims, disp, rem = owner_remainder(view.itasks, view.asteals)
        rec.open = False
        return rec.start + disp, rem
        yield  # unreachable: makes this a generator, like the Figure-3 close

    def _open(self, start: int, itasks: int) -> Generator:
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
            "stealable": self.stealable,
            "free_slots": self.free_slots,
            "epoch": self.epoch,
            "stealval": {**asdict(view), "locked": view.locked},
            "records": [asdict(r) for r in self.records],
        }

    # ------------------------------------------------------------------
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
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
        self._check_indices(self._violation)
        if sum(r.open for r in self.records) > 1:
            raise self._violation("records", "more than one open allotment record")
        view = StealValEpoch.unpack(self._load_stealval())
        open_rec = self.records[-1] if self.records and self.records[-1].open else None
        if view.locked and open_rec is not None:
            raise self._violation(
                "locked-open", "stealval locked while a record is open"
            )
        if not view.locked and open_rec is None:
            raise self._violation(
                "unlocked-closed", "stealval live but no open allotment record"
            )
        if not self._check_fields(view):
            return
        if (view.epoch, view.itasks, view.tail) != (
            open_rec.epoch, open_rec.itasks, self._slot(open_rec.start)
        ):
            raise self._violation(
                "stealval-record",
                f"stealval ({view.epoch},{view.itasks},{view.tail}) disagrees "
                f"with open record ({open_rec.epoch},{open_rec.itasks},"
                f"{self._slot(open_rec.start)})",
            )
        if open_rec.start + open_rec.itasks != self.split:
            raise self._violation(
                "allotment-split",
                f"allotment end {open_rec.start + open_rec.itasks} != "
                f"split {self.split}",
            )
        for rec in self.records:
            vols = schedule(rec.itasks)
            claims = rec.claims if not rec.open else len(vols)
            if not (0 <= rec.folded <= claims <= len(vols)):
                raise self._violation(
                    "epoch-accounting",
                    f"epoch {rec.epoch}: folded={rec.folded} claims={claims} "
                    f"schedule={len(vols)}",
                )

    def invariants(self) -> None:
        """Raise :class:`ProtocolError` on inconsistent owner state."""
        super().invariants()
        if not self.records:
            raise ProtocolError(f"PE {self.rank}: no allotment record")
        if sum(r.open for r in self.records) != 1 or not self.records[-1].open:
            raise ProtocolError(f"PE {self.rank}: exactly the newest record must be open")


class SwsQueueSystem(SplitQueueSystem):
    """Allocates the symmetric regions for every PE's SWS queue."""

    queue_class = SwsQueue

    def _alloc_meta(self, heap, cfg) -> None:
        q = self.queue_class
        self.itask_cap = max_initial_tasks(self.ctx.npes, codec=q.codec)
        heap.alloc_words(q.meta_region, 1, fill=q.codec.pack(0, 0, 0, 0))
        heap.alloc_words(q.oracle_comp_region, self._comp_rows(cfg) * cfg.comp_slots)

    def _comp_rows(self, cfg) -> int:
        """Completion-array rows: one per live epoch."""
        return cfg.max_epochs
