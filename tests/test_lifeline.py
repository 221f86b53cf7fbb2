"""Tests for lifeline-based work distribution."""

import pytest

from repro.fabric.errors import ProtocolError
from repro.runtime.lifeline import (
    LifelineConfig,
    LifelineSystem,
    hypercube_neighbors,
)
from repro.runtime.pool import TaskPool, run_pool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT


class TestNeighbors:
    def test_hypercube_power_of_two(self):
        assert hypercube_neighbors(0, 8) == [1, 2, 4]
        assert hypercube_neighbors(5, 8) == [4, 7, 1]

    def test_non_power_of_two_clips(self):
        assert hypercube_neighbors(0, 6) == [1, 2, 4]
        assert hypercube_neighbors(5, 6) == [4, 1]  # 5^2=7 clipped

    def test_single_pe(self):
        assert hypercube_neighbors(0, 1) == []

    def test_symmetry(self):
        """Lifeline graphs must be symmetric: if b is a buddy of a, a is
        a buddy of b (donors only scan their own flags)."""
        npes = 11
        for a in range(npes):
            for b in hypercube_neighbors(a, npes):
                assert a in hypercube_neighbors(b, npes)

    def test_connectivity(self):
        """Every PE reaches every other through buddy edges."""
        npes = 13
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for r in frontier:
                for b in hypercube_neighbors(r, npes):
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        assert seen == set(range(npes))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LifelineConfig(z_failures=0)
        with pytest.raises(ValueError):
            LifelineConfig(donate_max=0)
        with pytest.raises(ValueError):
            LifelineConfig(donor_min_local=0)


class TestManager:
    def make(self, npes=4):
        ctx = ShmemCtx(npes, latency=TEST_LAT)
        return ctx, LifelineSystem(ctx)

    def test_activation_threshold(self):
        _, sys_ = self.make()
        m = sys_.handle(1, LifelineConfig(z_failures=3))
        for _ in range(2):
            m.note_steal(False)
        assert not m.should_activate
        m.note_steal(False)
        assert m.should_activate
        m.note_steal(True)
        assert not m.should_activate
        assert m.consecutive_failures == 0

    def test_activate_sets_flags_at_buddies(self):
        ctx, sys_ = self.make(npes=4)
        m = sys_.handle(0)
        donors = [sys_.handle(r) for r in range(4)]

        def p():
            yield from m.activate()

        ctx.engine.spawn(p(), "p")
        ctx.run()
        assert m.active
        # Buddies of 0 in a 4-PE hypercube: 1 and 2.
        assert donors[1].pending_requests() == [0]
        assert donors[2].pending_requests() == [0]
        assert donors[3].pending_requests() == []

    def test_retract_clears_flags(self):
        ctx, sys_ = self.make(npes=4)
        m = sys_.handle(0)
        donor = sys_.handle(1)

        def p():
            yield from m.activate()
            yield from m.retract()

        ctx.engine.spawn(p(), "p")
        ctx.run()
        assert not m.active
        assert donor.pending_requests() == []

    def test_clear_request_local(self):
        ctx, sys_ = self.make(npes=4)
        donor = sys_.handle(1)
        donor.pe.local_store("lifeline.req", 0, 1)
        assert donor.pending_requests() == [0]
        donor.clear_request(0)
        assert donor.pending_requests() == []


class TestPoolIntegration:
    @staticmethod
    def fanout_registry(width, leaf_time=5e-4):
        reg = TaskRegistry()
        reg.register(
            "root",
            lambda p, tc: TaskOutcome(1e-5, [Task(1) for _ in range(width)]),
        )
        reg.register("leaf", lambda p, tc: TaskOutcome(leaf_time))
        return reg

    def test_all_tasks_execute_with_lifelines(self):
        stats = run_pool(
            8,
            self.fanout_registry(300),
            [Task(0)],
            impl="sws",
            lifelines=True,
        )
        assert stats.total_tasks == 301

    def test_lifelines_reduce_failed_steals(self):
        """Quiescent PEs stop hammering: failed steal attempts drop."""
        def go(lifelines):
            return run_pool(
                8,
                self.fanout_registry(200, leaf_time=2e-3),
                [Task(0)],
                impl="sws",
                lifelines=lifelines,
                seed=3,
            )

        plain = go(False)
        lifelined = go(True)
        assert lifelined.total_tasks == plain.total_tasks == 201
        assert lifelined.total_failed_steals < plain.total_failed_steals

    def test_donations_happen(self):
        pool = TaskPool(
            8,
            self.fanout_registry(400, leaf_time=1e-3),
            impl="sws",
            lifelines=True,
            seed=1,
        )
        pool.seed(0, [Task(0)])
        stats = pool.run()
        assert stats.total_tasks == 401
        donated = sum(w.lifeline.tasks_donated for w in pool.workers)
        activations = sum(w.lifeline.activations for w in pool.workers)
        assert activations > 0
        assert donated > 0

    def test_lifelines_with_sdc(self):
        stats = run_pool(
            4,
            self.fanout_registry(150),
            [Task(0)],
            impl="sdc",
            lifelines=True,
        )
        assert stats.total_tasks == 151

    def test_worker_requires_inbox_for_lifelines(self):
        from repro.runtime.worker import Worker

        # Constructing through the pool always provides the inbox; the
        # worker itself enforces the dependency.
        ctx = ShmemCtx(2, latency=TEST_LAT)
        from repro.core.config import QueueConfig
        from repro.core.sws_queue import SwsQueueSystem
        from repro.runtime.lifeline import LifelineSystem
        from repro.runtime.termination import TerminationSystem
        from repro.runtime.worker import WorkerConfig

        qs = SwsQueueSystem(ctx, QueueConfig(qsize=64, task_size=16))
        ts = TerminationSystem(ctx)
        lls = LifelineSystem(ctx)
        with pytest.raises(ProtocolError, match="inbox"):
            Worker(
                rank=0,
                npes=2,
                queue=qs.handle(0),
                registry=TaskRegistry(),
                selector=None,
                termination=ts.handle(0),
                config=WorkerConfig(),
                task_size=16,
                inbox=None,
                lifeline=lls.handle(0, LifelineConfig()),
            )
