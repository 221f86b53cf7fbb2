"""Seeded SIGKILL injection for the multiprocess substrate.

The real-process sibling of :mod:`repro.fabric.faults`: where the
simulated fabric fail-stops a PE at a *virtual time*, here a worker
process SIGKILLs **itself** at a seeded *task-count trigger* and at a
chosen *crash point* — the protocol states a fail-stop can actually
land in:

* ``exec`` — between executing tasks, holding only private work (the
  mildest death: queued and in-flight work must be scavenged);
* ``steal`` — mid-steal, after the claiming ``fetch_add`` won a block
  but before the completion signal (the victim's settle wait would wedge
  without claim voiding);
* ``lock`` — while *holding a stripe lock* of the shared-memory word
  seam with the protected word's seqlock shadow left odd (the worst
  case: every PE sharing the stripe would wedge without lease breaking).

Self-SIGKILL (rather than a supervisor kill timer) makes the crash
point exact and deterministic given the trigger count, which the chaos
suite's reproducibility leans on.  Like :class:`~repro.fabric.faults.
FaultPlan`, an inert default plan installs no hooks: the crash-mode
driver paths are only entered when a plan is :attr:`~CrashPlan.active`,
so ordinary runs stay bit-identical.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

_MASK64 = (1 << 64) - 1

#: The crash points a :class:`CrashKill` can target.
CRASH_POINTS = ("exec", "steal", "lock")


@dataclass(frozen=True)
class CrashKill:
    """One scheduled self-SIGKILL: ``rank`` dies at its ``after``-th
    task execution, at crash point ``point``.

    ``rank`` may be -1, meaning "a seeded-random live rank" resolved by
    :meth:`CrashPlan.resolve` against the job's size.
    """

    rank: int
    after: int
    point: str = "exec"

    def __post_init__(self) -> None:
        if self.rank < -1:
            raise ValueError(f"rank must be >= -1, got {self.rank}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.point not in CRASH_POINTS:
            raise ValueError(
                f"point must be one of {CRASH_POINTS}, got {self.point!r}"
            )


@dataclass(frozen=True)
class CrashPlan:
    """Declarative, seeded description of worker crashes to inject.

    Attributes
    ----------
    seed:
        Base of the deterministic stream used to resolve ``rank == -1``
        kills to concrete ranks.
    kills:
        Scheduled :class:`CrashKill`\\ s (or bare ``(rank, after)`` /
        ``(rank, after, point)`` tuples, normalized on construction).
    respawn:
        Respawn: when True the supervisor restarts each crashed
        rank once, rebinding it to a spare queue generation.
    """

    seed: int = 0
    kills: tuple[CrashKill, ...] = ()
    respawn: bool = False

    def __post_init__(self) -> None:
        normalized = tuple(
            k if isinstance(k, CrashKill) else CrashKill(*k)
            for k in self.kills
        )
        object.__setattr__(self, "kills", normalized)

    @property
    def active(self) -> bool:
        """Does this plan kill anyone at all?"""
        return bool(self.kills)

    def resolve(self, npes: int) -> tuple[CrashKill, ...]:
        """Concretize ``rank == -1`` kills against a job of ``npes``.

        Seeded splitmix64 counter hash, so a given (plan, npes) pair
        always kills the same ranks.  Distinct wildcard kills resolve to
        distinct ranks while any remain (a rank can only die once).
        """
        if not self.kills:
            return ()
        used = {k.rank for k in self.kills if k.rank >= 0}
        for k in self.kills:
            if 0 <= k.rank < npes:
                continue
            if k.rank >= npes:
                raise ValueError(
                    f"crash plan kills rank {k.rank} but the job has "
                    f"{npes} PEs"
                )
        out = []
        counter = 0
        for k in self.kills:
            if k.rank >= 0:
                out.append(k)
                continue
            for _ in range(8 * npes):
                counter += 1
                z = (self.seed * 0x9E3779B97F4A7C15
                     + counter * 0xD1B54A32D192ED03) & _MASK64
                z ^= z >> 31
                z = (z * 0x94D049BB133111EB) & _MASK64
                z ^= z >> 29
                rank = z % npes
                if rank not in used or len(used) >= npes:
                    break
            used.add(rank)
            out.append(CrashKill(rank, k.after, k.point))
        return tuple(out)


class CrashInjector:
    """Worker-side arm of a :class:`CrashPlan` for one rank.

    The driver's crash-mode PE loop calls :meth:`maybe_die` once per
    executed task; when the trigger count is reached the process
    SIGKILLs itself at the configured crash point (``exec`` dies right
    here; ``steal`` and ``lock`` are signalled to the caller so the
    death happens inside the targeted protocol window).
    """

    def __init__(self, plan: CrashPlan, rank: int, npes: int) -> None:
        kills = [k for k in plan.resolve(npes) if k.rank == rank]
        if len(kills) > 1:
            raise ValueError(f"rank {rank} scheduled to die twice")
        self._kill = kills[0] if kills else None
        self.rank = rank
        self._executed = 0

    @property
    def armed(self) -> bool:
        return self._kill is not None

    @property
    def point(self) -> str | None:
        return self._kill.point if self._kill else None

    def die(self) -> None:
        """Fail-stop this process, right now.  Never returns."""
        os.kill(os.getpid(), signal.SIGKILL)

    def maybe_die(self) -> str | None:
        """Count one executed task; trigger the scheduled death.

        Returns None (keep running), or — at the trigger — dies
        immediately for the ``exec`` point.  For ``steal`` / ``lock``
        the *point name* is returned instead and the caller must route
        the death into the matching protocol window (die mid-steal
        after the claim, or via ``ShmWords.die_holding``).
        """
        if self._kill is None:
            return None
        self._executed += 1
        if self._executed < self._kill.after:
            return None
        point = self._kill.point
        self._kill = None  # disarm: the caller may execute more tasks
        if point == "exec":
            self.die()
        return point


#: Shared inert plan: kills nobody, keeps the driver on its fast path.
NO_CRASHES = CrashPlan()
