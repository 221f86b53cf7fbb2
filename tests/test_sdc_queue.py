"""Tests for the baseline SDC queue (paper §3)."""

import pytest

from repro.core.config import QueueConfig
from repro.core.results import StealStatus
from repro.core.sdc_queue import LOCK, META_REGION, SdcQueueSystem
from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, collect, make_system, rec, rec_id, run_procs


class TestLocalOps:
    def test_enqueue_dequeue_lifo(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        for i in range(5):
            q.enqueue(rec(i))
        assert [rec_id(q.dequeue()) for _ in range(5)] == [4, 3, 2, 1, 0]
        assert q.dequeue() is None

    def test_counts(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        for i in range(10):
            q.enqueue(rec(i))
        assert q.local_count == 10
        assert q.stealable == 0
        collect(q.release())
        assert q.local_count == 5
        assert q.stealable == 5

    def test_wrong_record_size_rejected(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        with pytest.raises(ProtocolError, match="record"):
            q.enqueue(b"short")

    def test_release_requires_empty_shared(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        for i in range(4):
            q.enqueue(rec(i))
        collect(q.release())
        with pytest.raises(ProtocolError, match="empty shared"):
            collect(q.release())

    def test_release_of_single_task(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        q.enqueue(rec(0))
        assert collect(q.release()) == 1
        assert q.local_count == 0

    def test_release_empty_local_shares_nothing(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        assert collect(q.release()) == 0

    def test_acquire_takes_half_back(self):
        ctx, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        collect(q.release())  # shared=4 local=4
        while q.dequeue() is not None:
            pass
        assert q.local_count == 0

        def owner():
            n = yield from q.acquire()
            return n

        (n,) = run_procs(ctx, owner())
        assert n == 2
        assert q.local_count == 2
        assert q.stealable == 2

    def test_overflow_raises(self):
        _, sys_ = make_system("sdc", npes=1, qsize=8)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        with pytest.raises(ProtocolError, match="overflow"):
            q.enqueue(rec(8))

    def test_invariants_clean_queue(self):
        _, sys_ = make_system("sdc", npes=1)
        q = sys_.handle(0)
        for i in range(5):
            q.enqueue(rec(i))
        collect(q.release())
        q.invariants()


class TestStealProtocol:
    def _steal_setup(self, ntasks=10, **kw):
        ctx, sys_ = make_system("sdc", npes=2, **kw)
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(ntasks):
            victim.enqueue(rec(i, sys_.config.task_size))
        collect(victim.release())
        return ctx, victim, thief

    def test_steal_takes_half_of_shared(self):
        ctx, victim, thief = self._steal_setup(10)  # shared=5

        def t():
            r = yield from thief.steal(0)
            return r

        (r,) = run_procs(ctx, t())
        assert r.status is StealStatus.STOLEN
        assert r.ntasks == 2  # floor(5/2)
        # Stolen records are the oldest (nearest the tail).
        assert [rec_id(x) for x in r.records] == [0, 1]
        assert victim.stealable == 3

    def test_steal_uses_exactly_six_comms(self):
        ctx, victim, thief = self._steal_setup(10)

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.success
        assert delta["total"] == 6
        assert delta["blocking"] == 5
        assert delta["amo_swap"] == 2   # lock + unlock
        assert delta["get"] == 2        # metadata + tasks
        assert delta["put"] == 1        # tail/seq update
        assert delta["amo_add_nb"] == 1 # deferred completion

    def test_empty_steal_costs_three_comms(self):
        ctx, sys_ = make_system("sdc", npes=2)
        thief = sys_.handle(1)

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.status is StealStatus.EMPTY
        assert delta["total"] == 3
        assert delta["blocking"] == 3

    @staticmethod
    def _traced_steal(lease, ntasks):
        """One steal against a victim holding ``ntasks`` (half of them
        released) with every fabric op traced: (result, ops, comms)."""
        cfg = QueueConfig(qsize=256, task_size=16, sdc_lock_lease=lease)
        ctx = ShmemCtx(2, latency=TEST_LAT, trace_comm=True)
        sys_ = SdcQueueSystem(ctx, cfg)
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(ntasks):
            victim.enqueue(rec(i))
        collect(victim.release())

        def t():
            r = yield from thief.steal(0)
            return r

        (r,) = run_procs(ctx, t())
        ops = [(op.initiator, op.target, op.kind) for op in ctx.metrics.trace]
        return r, ops, ctx.metrics.snapshot()

    def test_classic_op_sequence_is_figure_2(self):
        """No lease configured: kind and target of every op of the one
        steal body, in order — the Figure-2 SDC column, and the
        three-communication empty path."""
        r, ops, comms = self._traced_steal(None, 10)
        assert r.success and r.ntasks == 2
        assert ops == [
            (1, 0, "amo_swap"), (1, 0, "get"), (1, 0, "put"),
            (1, 0, "amo_swap"), (1, 0, "get"), (1, 0, "amo_add_nb"),
        ]
        r, ops, comms = self._traced_steal(None, 0)
        assert r.status is StealStatus.EMPTY
        assert ops == [(1, 0, "amo_swap"), (1, 0, "get"), (1, 0, "amo_swap")]

    def test_lease_is_the_lock_word_strategy_only(self):
        """A lease that never expires on a reliable fabric changes how
        the lock word is taken and dropped (CAS for swap) and nothing
        else: same result, same volume, same 6 / 5 and 3 / 3 counts."""
        classic, classic_ops, classic_comms = self._traced_steal(None, 10)
        leased, leased_ops, leased_comms = self._traced_steal(10.0, 10)
        assert (leased.status, leased.ntasks, leased.records) == (
            classic.status, classic.ntasks, classic.records
        )
        assert leased_ops == [
            (i, t, "amo_cas" if kind == "amo_swap" else kind)
            for i, t, kind in classic_ops
        ]
        for comms in (classic_comms, leased_comms):
            assert (comms["total"], comms["blocking"]) == (6, 5)
        r, ops, comms = self._traced_steal(10.0, 0)
        assert r.status is StealStatus.EMPTY
        assert ops == [(1, 0, "amo_cas"), (1, 0, "get"), (1, 0, "amo_cas")]
        assert (comms["total"], comms["blocking"]) == (3, 3)

    def test_steal_from_self_rejected(self):
        _, sys_ = make_system("sdc", npes=2)
        q = sys_.handle(0)
        with pytest.raises(ProtocolError):
            collect(q.steal(0))

    def test_completion_reclaims_space(self):
        ctx, victim, thief = self._steal_setup(10)

        def t():
            r = yield from thief.steal(0)
            yield thief.pe.quiet()
            return r

        def owner_wait():
            yield Delay(1.0)
            return victim.progress()

        results = run_procs(ctx, t(), owner_wait())
        assert results[1] == results[0].ntasks
        assert victim.reclaim_tail == results[0].ntasks
        victim.invariants()

    def test_sequential_steals_drain_shared(self):
        ctx, victim, thief = self._steal_setup(16)  # shared=8

        def t():
            volumes = []
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    return volumes, r.status
                volumes.append(r.ntasks)

        ((volumes, final),) = run_procs(ctx, t())
        assert sum(volumes) == 8
        assert volumes == [4, 2, 1, 1]
        assert final is StealStatus.EMPTY
        assert victim.stealable == 0

    def test_concurrent_thieves_serialize_on_lock(self):
        ctx, sys_ = make_system("sdc", npes=4)
        victim = sys_.handle(0)
        for i in range(64):
            victim.enqueue(rec(i))
        collect(victim.release())  # shared = 32

        def t(rank):
            q = sys_.handle(rank)
            got = []
            for _ in range(4):
                r = yield from q.steal(0)
                if r.success:
                    got.extend(rec_id(x) for x in r.records)
            return got

        results = run_procs(ctx, t(1), t(2), t(3))
        all_stolen = [x for got in results for x in got]
        # No task stolen twice, all from the shared half.
        assert len(all_stolen) == len(set(all_stolen))
        assert all(0 <= x < 32 for x in all_stolen)

    def test_wrapped_steal(self):
        """A steal spanning the circular-buffer boundary uses two gets
        and still returns the right records."""
        ctx, sys_ = make_system("sdc", npes=2, qsize=16)
        victim, thief = sys_.handle(0), sys_.handle(1)
        # Advance the queue indices close to the wrap point.
        for i in range(12):
            victim.enqueue(rec(i))
        collect(victim.release())  # shared [0,6)

        def drain():
            total = 0
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    break
                total += r.ntasks
            yield thief.pe.quiet()
            return total

        (drained,) = run_procs(ctx, drain())
        assert drained == 6
        victim.progress()
        # Consume local, then refill so the new tasks wrap past slot 16.
        while victim.dequeue() is not None:
            pass
        for i in range(12, 24):
            victim.enqueue(rec(i))
        collect(victim.release())
        assert victim.stealable == 6

        ctx2_results = {}

        def t2():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            ctx2_results["delta"] = ctx.metrics.delta(before)
            return r

        (r2,) = run_procs(ctx, t2())
        assert r2.success
        got = [rec_id(x) for x in r2.records]
        assert got == sorted(got)
        assert all(12 <= g < 24 for g in got)

    def test_locked_abort_after_max_polls(self):
        ctx, sys_ = make_system("sdc", npes=3)
        victim = sys_.handle(0)
        thief = sys_.handle(2)
        for i in range(10):
            victim.enqueue(rec(i))
        collect(victim.release())
        # Jam the lock from a "stuck" process.
        ctx.heap.store(0, META_REGION, LOCK, 1)

        def t():
            r = yield from thief.steal(0, max_lock_polls=3)
            return r

        (r,) = run_procs(ctx, t())
        assert r.status is StealStatus.LOCKED_ABORT

    def test_early_abort_when_work_vanishes_under_lock(self):
        ctx, sys_ = make_system("sdc", npes=3)
        victim = sys_.handle(0)
        thief = sys_.handle(2)
        for i in range(4):
            victim.enqueue(rec(i))
        collect(victim.release())
        ctx.heap.store(0, META_REGION, LOCK, 1)  # lock held elsewhere

        def t():
            r = yield from thief.steal(0, max_lock_polls=50)
            return r

        def drainer():
            # Simulate the lock holder taking everything: move tail to split.
            yield Delay(3e-6)
            split = victim.pe.local_load(META_REGION, 3)
            victim.pe.local_store(META_REGION, 1, split)

        results = run_procs(ctx, t(), drainer())
        assert results[0].status is StealStatus.EMPTY
