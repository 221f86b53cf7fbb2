"""Tests for the Figure-3 (valid-bit) SWS variant."""

import pytest

from repro.core.config import QueueConfig
from repro.core.results import StealStatus
from repro.core.steal_half import schedule
from repro.core.stealval import StealValV1
from repro.core.sws_v1_queue import META_REGION, STEALVAL, SwsV1QueueSystem
from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError
from repro.runtime.pool import run_pool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, rec, rec_id, run_procs


def make_v1(npes=2, **cfg_kwargs):
    defaults = dict(qsize=256, task_size=16)
    defaults.update(cfg_kwargs)
    ctx = ShmemCtx(npes, latency=TEST_LAT)
    return ctx, SwsV1QueueSystem(ctx, QueueConfig(**defaults))


def release_now(ctx, q):
    def owner():
        n = yield from q.release()
        return n

    (n,) = run_procs(ctx, owner())
    return n


class TestBasics:
    def test_initial_word_invalid(self):
        _, sys_ = make_v1()
        q = sys_.handle(0)
        v = StealValV1.unpack(q.pe.local_load(META_REGION, STEALVAL))
        assert not v.valid
        assert q.stealable == 0

    def test_lifo_local_ops(self):
        _, sys_ = make_v1(npes=1)
        q = sys_.handle(0)
        for i in range(4):
            q.enqueue(rec(i))
        assert [rec_id(q.dequeue()) for _ in range(4)] == [3, 2, 1, 0]

    def test_release_publishes_valid_word(self):
        ctx, sys_ = make_v1(npes=1)
        q = sys_.handle(0)
        for i in range(10):
            q.enqueue(rec(i))
        assert release_now(ctx, q) == 5
        v = StealValV1.unpack(q.pe.local_load(META_REGION, STEALVAL))
        assert v.valid
        assert v.itasks == 5

    def test_steal_protocol_is_three_comms(self):
        ctx, sys_ = make_v1()
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(20):
            victim.enqueue(rec(i))
        release_now(ctx, victim)

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.success
        assert delta["total"] == 3
        assert delta["blocking"] == 2

    def test_steal_follows_schedule(self):
        ctx, sys_ = make_v1()
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(20):
            victim.enqueue(rec(i))
        release_now(ctx, victim)

        def t():
            vols, ids = [], []
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    return vols, ids
                vols.append(r.ntasks)
                ids.extend(rec_id(x) for x in r.records)

        ((vols, ids),) = run_procs(ctx, t())
        assert vols == schedule(10)
        assert ids == list(range(10))

    def test_invalid_word_disables_steals(self):
        ctx, sys_ = make_v1()
        thief = sys_.handle(1)

        def t():
            r = yield from thief.steal(0)
            return r

        (r,) = run_procs(ctx, t())
        assert r.status is StealStatus.DISABLED

    def test_overflow(self):
        _, sys_ = make_v1(npes=1, qsize=4)
        q = sys_.handle(0)
        for i in range(4):
            q.enqueue(rec(i))
        with pytest.raises(ProtocolError, match="overflow"):
            q.enqueue(rec(4))

    def test_qsize_may_exceed_epoch_tail_limit(self):
        """The V1 tail field is 20 bits — one bit more than the epoch
        layout — so a 2^19-slot queue is fine here too."""
        ctx = ShmemCtx(1, latency=TEST_LAT)
        SwsV1QueueSystem(ctx, QueueConfig(qsize=1 << 19, task_size=16))


class TestStallBehaviour:
    def test_release_stalls_on_in_flight_steal(self):
        """The §4.1 cost: management must wait for claimed steals."""
        ctx, sys_ = make_v1()
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(32):
            victim.enqueue(rec(i))

        def owner():
            yield from victim.release()
            yield Delay(0.6e-6)  # thief's claim has landed by now
            yield from victim.acquire()

        def t():
            r = yield from thief.steal(0)
            assert r.success
            yield thief.pe.quiet()

        run_procs(ctx, owner(), t())
        assert victim.stall_time > 0
        victim.invariants()

    def test_no_stall_without_steals(self):
        ctx, sys_ = make_v1(npes=1)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        release_now(ctx, q)
        release_now(ctx, q)
        assert q.stall_time == 0.0


class TestPoolIntegration:
    def test_pool_runs_v1(self):
        reg = TaskRegistry()

        def root(payload, tc):
            return TaskOutcome(1e-5, [Task(1) for _ in range(120)])

        reg.register("root", root)
        reg.register("leaf", lambda p, tc: TaskOutcome(2e-4))
        stats = run_pool(4, reg, [Task(0)], impl="sws-v1")
        assert stats.total_tasks == 121

    def test_v1_slower_management_than_epochs(self):
        """Under steal churn, the epoch design should spend no more time
        on release/acquire than the stalling V1 design."""
        def build():
            reg = TaskRegistry()

            def root(payload, tc):
                return TaskOutcome(1e-5, [Task(1) for _ in range(300)])

            reg.register("root", root)
            reg.register("leaf", lambda p, tc: TaskOutcome(5e-5))
            return reg

        v1 = run_pool(8, build(), [Task(0)], impl="sws-v1", seed=3)
        ep = run_pool(8, build(), [Task(0)], impl="sws", seed=3)
        assert v1.total_tasks == ep.total_tasks == 301
        v1_mgmt = sum(w.acquire_time + w.release_time for w in v1.workers)
        ep_mgmt = sum(w.acquire_time + w.release_time for w in ep.workers)
        assert ep_mgmt <= v1_mgmt * 1.5
