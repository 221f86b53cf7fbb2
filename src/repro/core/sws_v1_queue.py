"""SWS with the Figure-3 stealval — the paper's initial design (§4.1).

Before completion epochs, the stealval carried a plain **valid bit**
(Figure 3: ``asteals:24 | valid:1 | itasks:19 | tail:20``) and a single
completion array.  The claiming fetch-add is identical to the epoch
design, but queue management is more conservative:

* the owner disables steals by clearing the valid bit (swapping in an
  invalid word);
* because there is only one completion array, the owner "must wait until
  all in-progress claimed steals become finished before updating the
  stealval" — acquire and release both stall on in-flight steals.

This variant exists for the §4.2 ablation: the epoch design's payoff is
precisely the stall this queue suffers on every management operation
that races an in-flight steal.  Protocol-wise a steal is the same
3-communication sequence, so Figures 2 and 6 are unchanged between the
variants.
"""

from __future__ import annotations

from typing import Generator

from ..fabric.engine import Delay
from ..fabric.errors import OracleViolation, ProtocolError
from ..shmem.api import ShmemCtx
from .config import QueueConfig
from .results import StealResult, StealStatus
from .steal_half import max_steals, schedule, share_half, steal_displacement, steal_volume
from .stealval import StealValV1, max_initial_tasks

META_REGION = "swsv1.meta"
COMP_REGION = "swsv1.comp"
TASK_REGION = "swsv1.tasks"

STEALVAL = 0


class SwsV1QueueSystem:
    """Allocates symmetric regions for the Figure-3 SWS queues."""

    def __init__(self, ctx: ShmemCtx, config: QueueConfig | None = None) -> None:
        self.ctx = ctx
        self.config = config or QueueConfig()
        cfg = self.config
        if cfg.qsize > (1 << StealValV1.TAIL_BITS):
            raise ProtocolError(
                f"qsize {cfg.qsize} exceeds the {StealValV1.TAIL_BITS}-bit "
                f"tail field"
            )
        self.itask_cap = max_initial_tasks(ctx.npes, codec=StealValV1)
        ctx.heap.alloc_words(META_REGION, 1, fill=StealValV1.pack(0, False, 0, 0))
        ctx.heap.alloc_words(COMP_REGION, cfg.comp_slots)
        ctx.heap.alloc_bytes(TASK_REGION, cfg.qsize * cfg.task_size)

    def handle(self, rank: int) -> "SwsV1Queue":
        """Owner/thief handle bound to PE ``rank``."""
        return SwsV1Queue(self, rank)


class SwsV1Queue:
    """Per-PE handle for the valid-bit SWS variant."""

    driver_family = "sws"

    def __init__(self, system: SwsV1QueueSystem, rank: int) -> None:
        self.system = system
        self.cfg = system.config
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        self.head = 0
        self.split = 0
        self.reclaim_tail = 0
        # The single live allotment: [start, start + itasks).
        self.allot_start = 0
        self.allot_itasks = 0
        #: Owner time spent waiting out in-flight steals — the cost the
        #: epoch design removes.
        self.stall_time = 0.0
        #: Monotone count of stealval publications (oracle identity).
        self.publications = 0

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def local_count(self) -> int:
        """Tasks in the owner-only portion."""
        return self.head - self.split

    @property
    def shared_remaining(self) -> int:
        """Unclaimed tasks still advertised."""
        view = StealValV1.unpack(self.pe.local_load(META_REGION, STEALVAL))
        if not view.valid:
            return 0
        claims = min(view.asteals, max_steals(view.itasks))
        return view.itasks - steal_displacement(view.itasks, claims)

    @property
    def in_use(self) -> int:
        """Occupied buffer slots."""
        return self.head - self.reclaim_tail

    @property
    def free_slots(self) -> int:
        """Slots available for enqueueing."""
        return self.cfg.qsize - self.in_use

    def _slot(self, index: int) -> int:
        return index % self.cfg.qsize

    def _record_addr(self, index: int) -> int:
        return self._slot(index) * self.cfg.task_size

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def enqueue(self, record: bytes) -> None:
        """Append one serialized task to the local portion."""
        if len(record) != self.cfg.task_size:
            raise ProtocolError(
                f"record of {len(record)} bytes; queue expects {self.cfg.task_size}"
            )
        if self.free_slots == 0:
            self.progress()
        if self.free_slots == 0:
            raise ProtocolError(
                f"PE {self.rank}: SWS-V1 queue overflow (qsize={self.cfg.qsize})"
            )
        self.pe.local_write_bytes(TASK_REGION, self._record_addr(self.head), record)
        self.head += 1

    def dequeue(self) -> bytes | None:
        """Pop the newest local task; ``None`` when empty."""
        if self.local_count <= 0:
            return None
        self.head -= 1
        return self.pe.local_read_bytes(
            TASK_REGION, self._record_addr(self.head), self.cfg.task_size
        )

    def seed(self, records: list[bytes]) -> None:
        """Pre-run task placement."""
        for r in records:
            self.enqueue(r)

    def _disable_and_wait(self) -> Generator:
        """Clear the valid bit, then stall until every claimed steal of
        the current allotment has signalled completion (§4.1).

        Returns ``(rem_start, rem)`` — the unclaimed remainder.
        """
        old = self.pe.local_swap(META_REGION, STEALVAL, StealValV1.invalid_word())
        view = StealValV1.unpack(old)
        if not view.valid and view.itasks:
            raise ProtocolError(f"PE {self.rank}: stealval already invalid")
        claims = min(view.asteals, max_steals(view.itasks))
        vols = schedule(view.itasks)
        t0 = self.system.ctx.engine.now
        while not self._claims_finished(claims, vols):
            yield Delay(self.cfg.lock_backoff)
        self.stall_time += self.system.ctx.engine.now - t0
        # Fold everything: all claims finished, space reclaimable.
        disp = steal_displacement(view.itasks, claims)
        self.reclaim_tail = self.allot_start + disp
        for i in range(claims):
            self.pe.local_store(COMP_REGION, i, 0)
        return self.allot_start + disp, view.itasks - disp

    def _claims_finished(self, claims: int, vols: list[int]) -> bool:
        return all(
            self.pe.local_load(COMP_REGION, i) == vols[i] for i in range(claims)
        )

    def _publish(self, start: int, itasks: int) -> None:
        self.allot_start = start
        self.allot_itasks = itasks
        self.publications += 1
        self.pe.local_store(
            META_REGION,
            STEALVAL,
            StealValV1.pack(0, True, itasks, self._slot(start)),
        )

    def release(self) -> Generator:
        """Expose half the local portion (stalls on in-flight steals)."""
        rem_start, rem = yield from self._disable_and_wait()
        nshare = share_half(self.local_count)
        cap = min(self.system.itask_cap, self.cfg.qsize)
        nshare = max(0, min(nshare, cap - rem))
        self.split += nshare
        self._publish(rem_start, rem + nshare)
        return nshare

    def acquire(self) -> Generator:
        """Reclaim half the unclaimed remainder (stalls on in-flight)."""
        rem_start, rem = yield from self._disable_and_wait()
        ntake = share_half(rem)
        self.split -= ntake
        self._publish(rem_start, rem - ntake)
        return ntake

    def progress(self) -> int:
        """Fold the finished prefix of the live allotment."""
        view = StealValV1.unpack(self.pe.local_load(META_REGION, STEALVAL))
        if not view.valid:
            return 0
        claims = min(view.asteals, max_steals(view.itasks))
        vols = schedule(view.itasks)
        reclaimed = 0
        folded = self.reclaim_tail - self.allot_start
        i = 0
        disp = 0
        # Skip steals already folded.
        while i < claims and disp < folded:
            disp += vols[i]
            i += 1
        while i < claims:
            got = self.pe.local_load(COMP_REGION, i)
            if got == 0:
                break
            if got != vols[i]:
                raise ProtocolError(
                    f"PE {self.rank}: completion slot {i} holds {got}, "
                    f"expected {vols[i]}"
                )
            self.reclaim_tail += vols[i]
            reclaimed += vols[i]
            i += 1
        return reclaimed

    # ------------------------------------------------------------------
    # thief operations (identical 3-communication protocol)
    # ------------------------------------------------------------------
    def steal(self, victim: int) -> Generator:
        """Fetch-add claim, task copy, passive completion."""
        if victim == self.rank:
            raise ProtocolError("a PE cannot steal from itself")
        pe = self.pe
        old = yield pe.atomic_fetch_add(
            victim, META_REGION, STEALVAL, StealValV1.ASTEAL_UNIT
        )
        view = StealValV1.unpack(old)
        if not view.valid:
            return StealResult(StealStatus.DISABLED, victim)
        ntasks = steal_volume(view.itasks, view.asteals)
        if ntasks == 0:
            return StealResult(StealStatus.EMPTY, victim)
        disp = steal_displacement(view.itasks, view.asteals)
        data = yield from self._fetch_block(victim, view.tail + disp, ntasks)
        yield pe.atomic_add_nb(victim, COMP_REGION, view.asteals, ntasks)
        ts = self.cfg.task_size
        records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
        return StealResult(StealStatus.STOLEN, victim, ntasks, records)

    def probe(self, victim: int) -> Generator:
        """Read-only stealval fetch (damping probe)."""
        word = yield self.pe.atomic_fetch(victim, META_REGION, STEALVAL)
        return StealValV1.unpack(word)

    def _fetch_block(self, victim: int, start_slot: int, ntasks: int) -> Generator:
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
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    #: Completion words the oracle tracks (write journal + live view).
    oracle_comp_region = COMP_REGION
    #: ``oracle_check`` reads only this PE's own heap rows and fields.
    oracle_owner_local = True

    def oracle_comp_expected(self) -> dict[int, int]:
        """Legal nonzero value per completion slot of the live allotment.

        The live allotment stays ``(allot_start, allot_itasks)`` while the
        owner drains in-flight steals with the valid bit cleared, so
        draining completions are still validated against it.
        """
        return {
            j: vol for j, vol in enumerate(schedule(self.allot_itasks))
        }

    def oracle_check(self) -> None:
        """Per-event invariants, valid at any event boundary."""
        if not (self.reclaim_tail <= self.split <= self.head):
            raise OracleViolation(
                "swsv1-index-order",
                f"reclaim={self.reclaim_tail} split={self.split} head={self.head}",
                pe=self.rank,
            )
        if self.head - self.reclaim_tail > self.cfg.qsize:
            raise OracleViolation(
                "swsv1-capacity",
                f"in_use={self.head - self.reclaim_tail} > qsize={self.cfg.qsize}",
                pe=self.rank,
            )
        view = StealValV1.unpack(self.pe.local_load(META_REGION, STEALVAL))
        if not view.valid:
            if view.itasks or view.tail:
                raise OracleViolation(
                    "swsv1-invalid-fields",
                    f"invalid stealval carries itasks={view.itasks} "
                    f"tail={view.tail}", pe=self.rank,
                )
            return
        cap = min(self.system.itask_cap, self.cfg.qsize)
        if view.itasks > cap:
            raise OracleViolation(
                "swsv1-itasks-range",
                f"advertised itasks={view.itasks} exceeds cap {cap}", pe=self.rank,
            )
        if view.tail >= self.cfg.qsize:
            raise OracleViolation(
                "swsv1-tail-range",
                f"tail={view.tail} outside qsize={self.cfg.qsize}", pe=self.rank,
            )
        if (view.itasks, view.tail) != (self.allot_itasks, self._slot(self.allot_start)):
            raise OracleViolation(
                "swsv1-stealval-allotment",
                f"stealval ({view.itasks},{view.tail}) disagrees with "
                f"allotment ({self.allot_itasks},{self._slot(self.allot_start)})",
                pe=self.rank,
            )
        if self.allot_start + self.allot_itasks != self.split:
            raise OracleViolation(
                "swsv1-allotment-split",
                f"allotment end {self.allot_start + self.allot_itasks} != "
                f"split {self.split}", pe=self.rank,
            )

    def invariants(self) -> None:
        """Raise on inconsistent owner state."""
        if not (self.reclaim_tail <= self.split <= self.head):
            raise ProtocolError(
                f"PE {self.rank}: index order violated reclaim={self.reclaim_tail} "
                f"split={self.split} head={self.head}"
            )
        if self.head - self.reclaim_tail > self.cfg.qsize:
            raise ProtocolError(f"PE {self.rank}: queue over capacity")
