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

from ..fabric.errors import ProtocolError
from .split_queue import SplitQueueSystem
from .steal_half import schedule
from .stealval import StealValV1, owner_remainder
from .sws_queue import STEALVAL, StealvalQueue, SwsQueueSystem

META_REGION = "swsv1.meta"
COMP_REGION = "swsv1.comp"
TASK_REGION = "swsv1.tasks"


class SwsV1Queue(StealvalQueue):
    """Per-PE handle for the valid-bit SWS variant.

    The thief path, ``release`` and ``acquire`` are the epoch queue's
    (:class:`~repro.core.sws_queue.StealvalQueue`), reached through the
    Figure-3 codec; what is written here is what §4.1 makes different:
    the valid-bit word, the close that waits for in-flight steals, and
    the single completion array they drain into.
    """

    tag = "swsv1"
    codec = StealValV1
    meta_region = META_REGION
    oracle_comp_region = COMP_REGION
    task_region = TASK_REGION

    def __init__(self, system: SplitQueueSystem, rank: int) -> None:
        super().__init__(system, rank)
        # The single live allotment: [start, start + itasks).
        self.allot_start = 0
        self.allot_itasks = 0
        #: Owner time spent waiting out in-flight steals — the cost the
        #: epoch design removes.
        self.stall_time = 0.0

    @property
    def stealable(self) -> int:
        """Unclaimed tasks still advertised."""
        asteals, valid, itasks, _ = StealValV1.fields(self._meta[STEALVAL])
        return owner_remainder(itasks, asteals)[2] if valid else 0

    # ------------------------------------------------------------------
    # owner operations
    # ------------------------------------------------------------------
    def _close(self) -> Generator:
        """Clear the valid bit, then stall until every claimed steal of
        the current allotment has signalled completion (§4.1).

        Returns ``(rem_start, rem)`` — the unclaimed remainder.
        """
        old = self.pe.local_swap(META_REGION, STEALVAL, StealValV1.invalid_word())
        view = StealValV1.unpack(old)
        if not view.valid and view.itasks:
            raise ProtocolError(f"PE {self.rank}: stealval already invalid")
        claims, disp, rem = owner_remainder(view.itasks, view.asteals)
        vols = schedule(view.itasks)
        t0 = self.system.ctx.engine.now
        comp = self._comp
        while not all(comp[i] == vols[i] for i in range(claims)):
            yield self._lock_pause
        self.stall_time += self.system.ctx.engine.now - t0
        # Fold everything: all claims finished, space reclaimable.
        self.reclaim_tail = self.allot_start + disp
        for i in range(claims):
            self.pe.local_store(COMP_REGION, i, 0)
        return self.allot_start + disp, rem

    def _open(self, start: int, itasks: int) -> Generator:
        """Publish the new allotment with the valid bit set.  Nothing to
        wait for (``_close`` already did), so this never yields."""
        self.allot_start = start
        self.allot_itasks = itasks
        self.publications += 1
        self.pe.local_store(
            META_REGION,
            STEALVAL,
            StealValV1.pack(0, True, itasks, self._slot(start)),
        )
        return
        yield  # unreachable: makes this a generator, like the epoch open

    def progress(self) -> int:
        """Fold the finished prefix of the live allotment."""
        view = StealValV1.unpack(self._meta[STEALVAL])
        if not view.valid:
            return 0
        claims = owner_remainder(view.itasks, view.asteals)[0]
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
            got = self._comp[i]
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
    # schedule-exploration oracle hooks (repro.runtime.oracle)
    # ------------------------------------------------------------------
    def oracle_comp_expected(self) -> dict[int, int]:
        """Legal nonzero value per completion slot of the live allotment.

        The live allotment stays ``(allot_start, allot_itasks)`` while the
        owner drains in-flight steals with the valid bit cleared, so
        draining completions are still validated against it.
        """
        return dict(enumerate(schedule(self.allot_itasks)))

    def oracle_check(self) -> tuple[int, int] | None:
        """Per-event invariants, valid at any event boundary.  Returns the
        valid stealval's ``(publications, asteals)`` key, else None."""
        self._check_indices(self._violation)
        asteals, valid, itasks, tail = StealValV1.fields(self._meta[STEALVAL])
        if not self._check_fields(not valid, itasks, tail):
            return None
        if (itasks, tail) != (self.allot_itasks, self._slot(self.allot_start)):
            raise self._violation(
                "stealval-allotment",
                f"stealval ({itasks},{tail}) disagrees with "
                f"allotment ({self.allot_itasks},{self._slot(self.allot_start)})",
            )
        if self.allot_start + self.allot_itasks != self.split:
            raise self._violation(
                "allotment-split",
                f"allotment end {self.allot_start + self.allot_itasks} != "
                f"split {self.split}",
            )
        return self.publications, asteals


class SwsV1QueueSystem(SwsQueueSystem):
    """Allocates symmetric regions for the Figure-3 SWS queues."""

    queue_class = SwsV1Queue

    def _comp_rows(self, cfg) -> int:
        """A single completion array (§4.1)."""
        return 1
