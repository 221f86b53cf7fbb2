"""Tests for spawn-policy and SDC steal-volume policy knobs."""

import pytest

from repro.core.config import QueueConfig
from repro.core.sdc_queue import SdcQueueSystem
from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task
from repro.runtime.worker import WorkerConfig
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, collect, rec, run_procs


def fanout_registry(width, leaf_time=5e-4):
    reg = TaskRegistry()
    reg.register(
        "root", lambda p, tc: TaskOutcome(1e-5, [Task(1) for _ in range(width)])
    )
    reg.register("leaf", lambda p, tc: TaskOutcome(leaf_time))
    return reg


class TestSdcStealPolicy:
    def _steal_once(self, policy):
        cfg = QueueConfig(qsize=256, task_size=16, sdc_steal=policy)
        ctx = ShmemCtx(2, latency=TEST_LAT)
        sys_ = SdcQueueSystem(ctx, cfg)
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(32):
            victim.enqueue(rec(i))
        collect(victim.release())  # shared = 16

        def t():
            r = yield from thief.steal(0)
            return r

        (r,) = run_procs(ctx, t())
        return r

    def test_half_policy(self):
        assert self._steal_once("half").ntasks == 8

    def test_one_policy(self):
        assert self._steal_once("one").ntasks == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="sdc_steal"):
            QueueConfig(sdc_steal="all")

    def test_steal_one_needs_more_steals(self):
        """Steal-one must issue more successful steals than steal-half to
        distribute the same workload — the Hendler-Shavit argument."""
        def go(policy):
            return run_pool(
                4,
                fanout_registry(200),
                [Task(0)],
                impl="sdc",
                queue_config=QueueConfig(qsize=1024, task_size=16, sdc_steal=policy),
                seed=5,
            )

        half = go("half")
        one = go("one")
        assert half.total_tasks == one.total_tasks == 201
        assert one.total_steals > half.total_steals


class TestSpawnPolicy:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="spawn_policy"):
            WorkerConfig(spawn_policy="steal_first")

    @pytest.mark.parametrize("impl", ["sws", "sdc"])
    def test_help_first_correct(self, impl):
        stats = run_pool(
            4,
            fanout_registry(150),
            [Task(0)],
            impl=impl,
            worker_config=WorkerConfig(spawn_policy="help_first"),
        )
        assert stats.total_tasks == 151

    def test_help_first_releases_more(self):
        """Help-first tops up the shared portion eagerly, so it performs
        at least as many releases as work-first."""
        def go(policy):
            from repro.runtime.pool import TaskPool

            pool = TaskPool(
                4,
                fanout_registry(300, leaf_time=1e-3),
                impl="sws",
                worker_config=WorkerConfig(spawn_policy=policy),
                seed=2,
            )
            pool.seed(0, [Task(0)])
            stats = pool.run()
            release_time = sum(w.release_time for w in stats.workers)
            return stats, release_time

        wf_stats, wf_rel = go("work_first")
        hf_stats, hf_rel = go("help_first")
        assert wf_stats.total_tasks == hf_stats.total_tasks == 301
        assert hf_rel >= wf_rel

    def test_help_first_with_deep_tree(self):
        """Recursive spawning under help-first still completes exactly."""
        reg = TaskRegistry()

        def node(payload, tc):
            d = int.from_bytes(payload, "little")
            if d == 0:
                return TaskOutcome(5e-5)
            kids = [Task(0, (d - 1).to_bytes(2, "little")) for _ in range(2)]
            return TaskOutcome(1e-5, kids)

        reg.register("node", node)
        stats = run_pool(
            4,
            reg,
            [Task(0, (6).to_bytes(2, "little"))],
            impl="sws",
            worker_config=WorkerConfig(spawn_policy="help_first"),
        )
        assert stats.total_tasks == 2**7 - 1
