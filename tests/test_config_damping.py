"""Tests for queue configuration validation and the damping tracker."""

import pytest

from repro.core.config import QueueConfig
from repro.core.damping import DampingTracker, TargetMode
from repro.core.stealval import StealValEpoch


class TestQueueConfig:
    def test_defaults_valid(self):
        QueueConfig()

    def test_qsize_limits(self):
        with pytest.raises(ValueError):
            QueueConfig(qsize=1)
        with pytest.raises(ValueError):
            QueueConfig(qsize=(1 << 19) + 1)
        QueueConfig(qsize=1 << 19)  # exactly the 19-bit tail limit

    def test_task_size_positive(self):
        with pytest.raises(ValueError):
            QueueConfig(task_size=0)

    def test_epoch_limits(self):
        with pytest.raises(ValueError):
            QueueConfig(max_epochs=0)
        with pytest.raises(ValueError):
            QueueConfig(max_epochs=StealValEpoch.MAX_EPOCHS + 1)

    def test_comp_slots_must_cover_longest_schedule(self):
        with pytest.raises(ValueError):
            QueueConfig(comp_slots=20)
        QueueConfig(comp_slots=21)

    def test_negative_backoff_rejected(self):
        with pytest.raises(ValueError):
            QueueConfig(lock_backoff=-1e-9)


def view(asteals=0, epoch=0, itasks=0, tail=0):
    return StealValEpoch.unpack(StealValEpoch.pack(asteals, epoch, itasks, tail))


class TestDampingTracker:
    def test_default_mode_full(self):
        d = DampingTracker(4)
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.FULL

    def test_demotion_requires_overshoot(self):
        d = DampingTracker(4, threshold=4)
        # itasks=8 -> max_steals=4; asteals=6 -> overshoot 2 < 4: stays full
        d.note_failed_claim(1, view(asteals=6, itasks=8))
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.FULL
        # overshoot 4 >= threshold: demoted
        d.note_failed_claim(1, view(asteals=8, itasks=8))
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.EMPTY
        assert d.stats.demotions == 1

    def test_locked_view_never_demotes(self):
        d = DampingTracker(4, threshold=0)
        locked = StealValEpoch.unpack(StealValEpoch.locked_word())
        d.note_failed_claim(1, locked)
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.FULL

    def test_success_promotes(self):
        d = DampingTracker(4, threshold=0)
        d.note_failed_claim(2, view(asteals=9, itasks=4))
        d.note_success(2)
        assert d.modes.get(2, TargetMode.FULL) is TargetMode.FULL

    def test_disabled_tracker_always_full(self):
        d = DampingTracker(4, threshold=0, enabled=False)
        d.note_failed_claim(1, view(asteals=99, itasks=4))
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.FULL

    def test_view_has_work(self):
        d = DampingTracker
        assert d.view_has_work(view(asteals=0, itasks=8))
        assert d.view_has_work(view(asteals=3, itasks=8))
        assert not d.view_has_work(view(asteals=4, itasks=8))  # exhausted
        assert not d.view_has_work(view(itasks=0))
        assert not d.view_has_work(
            StealValEpoch.unpack(StealValEpoch.locked_word())
        )

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            DampingTracker(4, threshold=-1)

    def test_per_target_independence(self):
        d = DampingTracker(4, threshold=0)
        d.note_failed_claim(1, view(asteals=9, itasks=4))
        assert d.modes.get(1, TargetMode.FULL) is TargetMode.EMPTY
        assert d.modes.get(2, TargetMode.FULL) is TargetMode.FULL

    def test_counters_stay_ordered_under_any_history(self):
        """A target is promoted only out of a demotion, whatever the
        thief observes in turn."""
        import random

        rng = random.Random(7)
        d = DampingTracker(4, threshold=2)
        for _ in range(5000):
            target = rng.randrange(4)
            if rng.randrange(2):
                d.note_failed_claim(target, view(asteals=rng.randrange(12),
                                                 itasks=rng.randrange(8)))
            else:
                d.note_success(target)
            assert 0 <= d.stats.promotions <= d.stats.demotions
        assert d.stats.promotions > 0
