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

from dataclasses import dataclass, field
from enum import Enum

from .stealval import StealViewEpoch, owner_remainder


class TargetMode(Enum):
    """Per-target damping state."""

    FULL = "full"    #: steal with claiming fetch-add
    EMPTY = "empty"  #: probe read-only first


@dataclass
class DampingStats:
    """Counters for the damping state machine, for the ablation bench."""

    demotions: int = 0
    promotions: int = 0
    probes: int = 0
    probe_aborts: int = 0


class DampingTracker:
    """Thief-side full/empty mode bookkeeping for all potential victims."""

    def __init__(self, npes: int, threshold: int = 4, enabled: bool = True) -> None:
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.npes = npes
        self.threshold = threshold
        self.enabled = enabled
        self._mode: dict[int, TargetMode] = {}
        self.stats = DampingStats()

    def mode(self, target: int) -> TargetMode:
        """Current mode for ``target`` (defaults to full-mode)."""
        if not self.enabled:
            return TargetMode.FULL
        return self._mode.get(target, TargetMode.FULL)

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
            and self.mode(target) is TargetMode.FULL
        ):
            self._mode[target] = TargetMode.EMPTY
            self.stats.demotions += 1

    def note_probe(self, target: int, has_work: bool) -> None:
        """Record a probe outcome; promote the target if work appeared."""
        self.stats.probes += 1
        if has_work:
            if self._mode.get(target) is TargetMode.EMPTY:
                self._mode[target] = TargetMode.FULL
                self.stats.promotions += 1
        else:
            self.stats.probe_aborts += 1

    def note_success(self, target: int) -> None:
        """A successful steal confirms full-mode."""
        if self._mode.get(target) is TargetMode.EMPTY:
            self._mode[target] = TargetMode.FULL
            self.stats.promotions += 1

    @staticmethod
    def view_has_work(view: StealViewEpoch) -> bool:
        """Does a decoded stealval advertise unclaimed tasks?"""
        return not view.locked and owner_remainder(view.itasks, view.asteals)[2] > 0
