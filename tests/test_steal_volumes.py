"""Tests for steal-volume histograms and the SWS queue snapshot."""

import pytest

from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.stats import RunStats
from repro.runtime.task import Task


def fanout_registry(width, leaf_time=5e-4):
    reg = TaskRegistry()
    reg.register(
        "root", lambda p, tc: TaskOutcome(1e-5, [Task(1) for _ in range(width)])
    )
    reg.register("leaf", lambda p, tc: TaskOutcome(leaf_time))
    return reg


class TestStealVolumeHistogram:
    def test_histogram_totals_match_counters(self):
        stats = run_pool(8, fanout_registry(400), [Task(0)], impl="sws", seed=2)
        hist = stats.steal_volume_histogram()
        assert sum(hist.values()) == stats.total_steals
        assert sum(size * n for size, n in hist.items()) == sum(
            w.tasks_stolen for w in stats.workers
        )

    def test_steal_half_produces_geometric_spread(self):
        """Steal-half yields many small blocks and few large ones."""
        stats = run_pool(8, fanout_registry(600), [Task(0)], impl="sws", seed=2)
        hist = stats.steal_volume_histogram()
        assert len(hist) > 2  # multiple distinct block sizes
        assert 1 in hist      # the tail of every schedule is 1-task steals

    def test_survives_json_round_trip(self):
        stats = run_pool(4, fanout_registry(200), [Task(0)], impl="sws")
        again = RunStats.from_json(stats.to_json())
        assert again.steal_volume_histogram() == stats.steal_volume_histogram()


class TestSwsSnapshot:
    def test_snapshot_fields(self):
        from repro.core.config import QueueConfig
        from repro.core.sws_queue import SwsQueueSystem
        from repro.shmem.api import ShmemCtx

        from .conftest import TEST_LAT, rec, run_procs

        ctx = ShmemCtx(2, latency=TEST_LAT)
        system = SwsQueueSystem(ctx, QueueConfig(qsize=64, task_size=16))
        q = system.handle(0)
        for i in range(10):
            q.enqueue(rec(i))

        def owner():
            yield from q.release()

        run_procs(ctx, owner())
        snap = q.snapshot()
        assert snap["local_count"] == 5
        assert snap["stealable"] == 5
        assert snap["stealval"]["itasks"] == 5
        assert not snap["stealval"]["locked"]
        assert snap["records"][-1]["open"] is True
        import json

        json.dumps(snap)  # fully serializable
