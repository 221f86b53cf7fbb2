"""Steal damping (paper §4.3).

Every thief tracks, per target, whether the target is in *full-mode*
(steal with the claiming fetch-add) or *empty-mode* (probe first with a
read-only atomic fetch).  A target is demoted to empty-mode when a
claiming attempt finds no work **and** the attempted-steal counter has
overshot the schedule length by more than a threshold — the signature of
many thieves hammering an exhausted queue.  A probe that discovers fresh
work promotes the target back to full-mode.

Damping bounds the growth of the 24-bit asteals field (overflow after
2^24 attempts) and cuts AMO traffic on drained queues; the paper found it
costs nothing when work is plentiful.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .stealval import StealViewEpoch, owner_remainder


class TargetMode(Enum):
    """Per-target damping state."""

    FULL = "full"    #: steal with claiming fetch-add
    EMPTY = "empty"  #: probe read-only first


@dataclass
class DampingStats:
    """Counters for the damping state machine, for the ablation bench.
    (A thief counts its own probes: ``WorkerStats.probes``.)"""

    demotions: int = 0
    promotions: int = 0


class DampingTracker:
    """Thief-side full/empty mode bookkeeping for all potential victims."""

    def __init__(self, npes: int, threshold: int = 4, enabled: bool = True) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.npes = npes
        self.threshold = threshold
        self.enabled = enabled
        #: target -> mode, full-mode when absent.  Only an enabled tracker
        #: demotes, so ``modes.get(victim)`` is the whole empty-mode test.
        self.modes: dict[int, TargetMode] = {}
        self.stats = DampingStats()

    def note_failed_claim(self, target: int, view: StealViewEpoch) -> None:
        """A claiming fetch-add found no work; maybe demote the target.

        Demotion requires the asteals overshoot beyond the schedule length
        to exceed the threshold (repeated failed claims), per §4.3.
        """
        if not self.enabled or view.locked:
            return
        claims, _disp, remaining = owner_remainder(view.itasks, view.asteals)
        overshoot = view.asteals - claims  # attempts that found nothing left
        if (
            remaining == 0
            and overshoot >= self.threshold
            and self.modes.get(target) is not TargetMode.EMPTY
        ):
            self.modes[target] = TargetMode.EMPTY
            self.stats.demotions += 1

    def note_success(self, target: int) -> None:
        """The target showed work — a steal took some, or an empty-mode
        probe saw some: it is back in full-mode."""
        if self.modes.get(target) is TargetMode.EMPTY:
            self.modes[target] = TargetMode.FULL
            self.stats.promotions += 1

    @staticmethod
    def view_has_work(view: StealViewEpoch) -> bool:
        """Does a decoded stealval advertise unclaimed tasks?  The
        reference that each codec's shift-and-mask ``has_work(word)`` is
        held to (``tests/test_codec_has_work.py``)."""
        return not view.locked and owner_remainder(view.itasks, view.asteals)[2] > 0
