"""Lifeline-based work distribution (Saraswat et al., PPoPP'11).

The paper's related work (§2.2) cites lifelines as a complementary
technique: "Lifelines have been proposed to improve quiescence detection
and eliminate unproductive stealing traffic."  SWS accelerates each steal;
lifelines reduce how many *failed* steals an idle PE issues.  This module
composes the two.

Mechanism: after ``z`` consecutive failed random steals, an idle PE goes
quiescent and instead *registers lifelines* with a fixed set of buddies
(its hypercube neighbours).  A buddy that later has surplus work pushes
tasks directly to the registered PE through its delivery inbox, at
which point the PE retracts its outstanding lifelines and resumes
stealing normally.

Fabric footprint per PE: one symmetric word array ``lifeline.req`` of
``npes`` request flags (buddy ``r`` sets word ``r`` on the donor with a
non-blocking put; the donor reads its own flags locally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..shmem.api import ShmemCtx

REQ_REGION = "lifeline.req"


def hypercube_neighbors(rank: int, npes: int) -> list[int]:
    """Lifeline buddies: ranks differing in one bit (classic lifeline
    graph).  Falls back to the ring successor when a flipped bit lands
    outside the job."""
    if npes <= 1:
        return []
    out = []
    bit = 1
    while bit < npes:
        buddy = rank ^ bit
        if buddy < npes:
            out.append(buddy)
        bit <<= 1
    if not out:  # pragma: no cover - npes>1 always yields at least one
        out.append((rank + 1) % npes)
    return out


@dataclass(frozen=True)
class LifelineConfig:
    """Tunables for the lifeline scheme."""

    z_failures: int = 4     # consecutive failed steals before quiescing
    donate_max: int = 8     # tasks pushed per fulfilled lifeline
    donor_min_local: int = 4  # donor keeps at least this many tasks

    def __post_init__(self) -> None:
        if self.z_failures < 1:
            raise ValueError("z_failures must be >= 1")
        if self.donate_max < 1:
            raise ValueError("donate_max must be >= 1")
        if self.donor_min_local < 1:
            raise ValueError("donor_min_local must be >= 1")


class LifelineSystem:
    """Allocates the symmetric request flags for the job.

    ``faults`` (a :class:`~repro.fabric.faults.FaultInjector`) makes every
    manager route around fail-stopped PEs: dead buddies are not registered
    with, and a dead requester's lifeline is dropped rather than fulfilled
    — tasks pushed at a dead inbox would be lost.
    """

    def __init__(self, ctx: ShmemCtx, faults=None) -> None:
        self.ctx = ctx
        self.faults = faults
        ctx.heap.alloc_words(REQ_REGION, ctx.npes)

    def handle(self, rank: int, config: LifelineConfig | None = None) -> "LifelineManager":
        """Per-PE lifeline manager bound to ``rank``."""
        return LifelineManager(self, rank, config or LifelineConfig())


class LifelineManager:
    """Per-PE lifeline state machine."""

    def __init__(self, system: LifelineSystem, rank: int, config: LifelineConfig) -> None:
        self.system = system
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        self.npes = system.ctx.npes
        self.cfg = config
        self.buddies = hypercube_neighbors(rank, self.npes)
        self.active = False
        self.consecutive_failures = 0
        # stats
        self.activations = 0
        self.donations = 0
        self.tasks_donated = 0
        self.tasks_received_hint = 0

    # ------------------------------------------------------------------
    # idle side
    # ------------------------------------------------------------------
    def note_steal(self, success: bool) -> None:
        """Track consecutive failures (reset on success)."""
        if success:
            self.consecutive_failures = 0
        else:
            self.consecutive_failures += 1

    @property
    def should_activate(self) -> bool:
        """Quiesce once the failure budget is exhausted."""
        return (
            not self.active
            and self.consecutive_failures >= self.cfg.z_failures
        )

    def _alive(self, pe: int) -> bool:
        faults = self.system.faults
        return faults is None or not faults.is_dead(pe, self.system.ctx.now)

    def activate(self) -> Generator:
        """Register lifelines with every (live) buddy (non-blocking puts)."""
        self.active = True
        self.activations += 1
        for buddy in self.buddies:
            if self._alive(buddy):
                yield self.pe.put_word_nb(buddy, REQ_REGION, self.rank, 1)
        yield self.pe.quiet()

    def retract(self) -> Generator:
        """Work arrived: withdraw outstanding lifeline requests."""
        self.active = False
        self.consecutive_failures = 0
        for buddy in self.buddies:
            if self._alive(buddy):
                yield self.pe.put_word_nb(buddy, REQ_REGION, self.rank, 0)
        yield self.pe.quiet()

    # ------------------------------------------------------------------
    # donor side
    # ------------------------------------------------------------------
    def pending_requests(self) -> list[int]:
        """Ranks currently holding a lifeline into this PE (local reads).

        Fault mode: requesters that have since fail-stopped are dropped
        (their flag cleared) — donating into a dead inbox loses tasks.
        """
        out = []
        for r in range(self.npes):
            if r == self.rank or self.pe.local_load(REQ_REGION, r) != 1:
                continue
            if not self._alive(r):
                self.pe.local_store(REQ_REGION, r, 0)
                continue
            out.append(r)
        return out

    def clear_request(self, requester: int) -> None:
        """Mark a lifeline fulfilled (local write to own flag word)."""
        self.pe.local_store(REQ_REGION, requester, 0)

    def note_donation(self, ntasks: int) -> None:
        """Record one fulfilled lifeline of ``ntasks`` tasks."""
        self.donations += 1
        self.tasks_donated += ntasks
