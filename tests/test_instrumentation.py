"""Tests for queue sampling, RunStats JSON, and the sweep's table file."""

import json

import pytest

from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.stats import RunStats, WorkerStats
from repro.runtime.task import Task
from repro.runtime.worker import WorkerConfig


def fanout_registry(width, leaf_time=2e-4):
    reg = TaskRegistry()
    reg.register(
        "root", lambda p, tc: TaskOutcome(1e-5, [Task(1) for _ in range(width)])
    )
    reg.register("leaf", lambda p, tc: TaskOutcome(leaf_time))
    return reg


class TestQueueSampling:
    def test_disabled_by_default(self):
        pool = TaskPool(2, fanout_registry(50), impl="sws")
        pool.seed(0, [Task(0)])
        pool.run()
        assert all(not w.samples for w in pool.workers)

    def test_samples_recorded(self):
        pool = TaskPool(
            2,
            fanout_registry(100),
            impl="sws",
            worker_config=WorkerConfig(sample_queue=True, batch_max=8),
        )
        pool.seed(0, [Task(0)])
        pool.run()
        samples = pool.workers[0].samples
        assert len(samples) > 3
        times = [t for t, _, _ in samples]
        assert times == sorted(times)
        # Occupancy values are sane.
        for _, local, shared in samples:
            assert local >= 0 and shared >= 0

    def test_samples_show_drain(self):
        pool = TaskPool(
            2,
            fanout_registry(100),
            impl="sws",
            worker_config=WorkerConfig(sample_queue=True, batch_max=8),
        )
        pool.seed(0, [Task(0)])
        pool.run()
        locals_ = [l for _, l, _ in pool.workers[0].samples]
        assert max(locals_) > locals_[-1]  # queue drained by the end


class TestRunStatsJson:
    def test_round_trip(self):
        stats = RunStats(
            npes=2,
            runtime=1.5,
            workers=[
                WorkerStats(rank=0, tasks_executed=10, task_time=1.0),
                WorkerStats(rank=1, tasks_executed=5, steal_time=0.1),
            ],
            comm={"total": 7},
        )
        again = RunStats.from_json(stats.to_json())
        assert again.npes == 2
        assert again.runtime == 1.5
        assert again.workers[0].tasks_executed == 10
        assert again.workers[1].steal_time == 0.1
        assert again.comm == {"total": 7}
        assert again.throughput == stats.throughput

    def test_json_is_plain(self):
        stats = RunStats(npes=1, runtime=1.0, workers=[WorkerStats()])
        payload = json.loads(stats.to_json())
        assert set(payload) == {"npes", "runtime", "workers", "comm"}

    def test_live_round_trip(self):
        pool = TaskPool(2, fanout_registry(40), impl="sws")
        pool.seed(0, [Task(0)])
        stats = pool.run()
        again = RunStats.from_json(stats.to_json())
        assert again.total_tasks == stats.total_tasks
        assert again.summary() == stats.summary()


class TestCliSave:
    def test_save_flag_persists_result(self, tmp_path, capsys):
        """``--cache FILE`` names the table a sweep's rows persist in."""
        from repro.__main__ import main
        from repro.analysis.sweep import SweepJob, code_version
        from repro.analysis.table import Table

        db = tmp_path / "ci.db"
        rc = main(["sweep", "--scenarios", "fig2", "--jobs", "1", "--quiet",
                   "--cache", str(db)])
        assert rc == 0
        table = Table(db)
        assert table.code_versions() == [code_version()]
        loaded = table.get(SweepJob.bench("fig2").spec(), code_version())
        counts = {row[0]: row[1:] for row in loaded["payload"]["rows"]}
        assert counts["SWS"] == [3, 2, 1]
