"""Tests for the Bouncing Producer-Consumer workload."""

import pytest

from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskContext, TaskRegistry
from repro.runtime.task import Task
from repro.workloads.bpc import PAPER_PARAMS, BpcParams, BpcWorkload, paper_scale


class TestParams:
    def test_total_tasks_formula(self):
        p = BpcParams(n_consumers=8, depth=4)
        assert p.total_tasks == 4 * 9

    def test_paper_params(self):
        assert PAPER_PARAMS.n_consumers == 8192
        assert PAPER_PARAMS.depth == 500
        assert PAPER_PARAMS.consumer_time == 5e-3
        assert PAPER_PARAMS.producer_time == 1e-3
        assert paper_scale() is PAPER_PARAMS

    def test_avg_task_time_near_consumer_time(self):
        # Consumers dominate, so mean duration is just under 5 ms.
        p = BpcParams(n_consumers=64, depth=8)
        assert 4.5e-3 < p.avg_task_time < 5e-3

    def test_total_task_time(self):
        p = BpcParams(n_consumers=2, depth=3, consumer_time=1.0, producer_time=0.5)
        assert p.total_task_time == pytest.approx(3 * (2 * 1.0 + 0.5))

    def test_validation(self):
        with pytest.raises(ValueError):
            BpcParams(n_consumers=-1)
        with pytest.raises(ValueError):
            BpcParams(depth=0)
        with pytest.raises(ValueError):
            BpcParams(consumer_time=-1.0)


class TestExpansion:
    def test_producer_spawns_producer_first(self):
        """The next producer must be enqueued first so it sits nearest
        the tail — the 'bouncing' property."""
        reg = TaskRegistry()
        wl = BpcWorkload(reg, BpcParams(n_consumers=3, depth=5))
        out = reg.execute(wl.seed_task(), TaskContext(0, 1))
        assert len(out.children) == 4
        assert out.children[0].fn_id == wl.producer_id
        assert all(c.fn_id == wl.consumer_id for c in out.children[1:])

    def test_deepest_producer_spawns_only_consumers(self):
        reg = TaskRegistry()
        wl = BpcWorkload(reg, BpcParams(n_consumers=3, depth=1))
        out = reg.execute(wl.seed_task(), TaskContext(0, 1))
        assert len(out.children) == 3
        assert all(c.fn_id == wl.consumer_id for c in out.children)

    def test_durations(self):
        reg = TaskRegistry()
        p = BpcParams(n_consumers=1, depth=2, consumer_time=7.0, producer_time=3.0)
        wl = BpcWorkload(reg, p)
        prod = reg.execute(wl.seed_task(), TaskContext(0, 1))
        assert prod.duration == 3.0
        cons = reg.execute(prod.children[1], TaskContext(0, 1))
        assert cons.duration == 7.0
        assert not cons.children


class TestEndToEnd:
    @pytest.mark.parametrize("npes", [1, 4])
    def test_exact_task_count(self, impl, npes):
        p = BpcParams(n_consumers=16, depth=8, consumer_time=1e-4, producer_time=5e-5)
        reg = TaskRegistry()
        wl = BpcWorkload(reg, p)
        stats = run_pool(npes, reg, [wl.seed_task()], impl=impl)
        assert stats.total_tasks == p.total_tasks

    def test_producers_bounce(self):
        """With coarse consumers, the producer chain must migrate: more
        than one PE executes producer tasks, and the chain changes hosts
        repeatedly (the benchmark's namesake behaviour)."""
        p = BpcParams(n_consumers=24, depth=12, consumer_time=2e-3, producer_time=1e-4)
        reg = TaskRegistry()
        wl = BpcWorkload(reg, p)
        stats = run_pool(4, reg, [wl.seed_task()], impl="sws")
        assert stats.total_tasks == p.total_tasks
        hosts = {rank for _, rank in wl.producer_hosts}
        assert len(hosts) > 1
        assert wl.bounces >= 1
        # One record per producer, each depth exactly once.
        assert sorted(d for d, _ in wl.producer_hosts) == list(
            range(1, p.depth + 1)
        )

    def test_no_bounce_on_single_pe(self):
        p = BpcParams(n_consumers=4, depth=6, consumer_time=1e-4, producer_time=1e-4)
        reg = TaskRegistry()
        wl = BpcWorkload(reg, p)
        run_pool(1, reg, [wl.seed_task()], impl="sws")
        assert wl.bounces == 0
