"""Tests for the SWS queue (paper §4): claims, epochs, reclamation."""

import pytest

from repro.core.results import StealStatus
from repro.core.steal_half import schedule
from repro.core.stealval import StealValEpoch
from repro.core.sws_queue import COMP_REGION, META_REGION, STEALVAL, SwsQueueSystem
from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError

from .conftest import collect, make_system, rec, rec_id, run_procs


def release_now(ctx, q):
    """Run a release to completion on an otherwise idle context."""

    def owner():
        n = yield from q.release()
        return n

    (n,) = run_procs(ctx, owner())
    return n


class TestLocalOps:
    def test_enqueue_dequeue_lifo(self):
        _, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        for i in range(5):
            q.enqueue(rec(i))
        assert [rec_id(q.dequeue()) for _ in range(5)] == [4, 3, 2, 1, 0]
        assert q.dequeue() is None

    def test_initial_stealval_empty_epoch_zero(self):
        _, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        v = StealValEpoch.unpack(q.pe.local_load(META_REGION, STEALVAL))
        assert (v.asteals, v.epoch, v.itasks) == (0, 0, 0)
        assert q.stealable == 0

    def test_wrong_record_size_rejected(self):
        _, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        with pytest.raises(ProtocolError, match="record"):
            q.enqueue(b"way too short")

    def test_overflow_raises(self):
        _, sys_ = make_system("sws", npes=1, qsize=8)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        with pytest.raises(ProtocolError, match="overflow"):
            q.enqueue(rec(9))


class TestReleaseAcquire:
    def test_release_advances_epoch_and_publishes(self):
        ctx, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        for i in range(10):
            q.enqueue(rec(i))
        n = release_now(ctx, q)
        assert n == 5
        v = StealValEpoch.unpack(q.pe.local_load(META_REGION, STEALVAL))
        assert (v.asteals, v.epoch, v.itasks, v.tail) == (0, 1, 5, 0)
        assert q.local_count == 5
        assert q.stealable == 5

    def test_release_includes_unclaimed_remainder(self):
        ctx, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        release_now(ctx, q)  # shared 4, local 4
        n2 = release_now(ctx, q)  # nothing claimed: remainder 4 + half of 4
        assert n2 == 2
        assert q.stealable == 6
        assert q.local_count == 2

    def test_acquire_takes_half_of_remainder(self):
        ctx, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        for i in range(8):
            q.enqueue(rec(i))
        release_now(ctx, q)
        while q.dequeue() is not None:
            pass

        def owner():
            n = yield from q.acquire()
            return n

        (n,) = run_procs(ctx, owner())
        assert n == 2
        assert q.local_count == 2
        assert q.stealable == 2
        # The re-acquired tasks are the top of the shared block.
        assert rec_id(q.dequeue()) == 3

    def test_acquire_of_empty_remainder_returns_zero(self):
        ctx, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)

        def owner():
            n = yield from q.acquire()
            return n

        (n,) = run_procs(ctx, owner())
        assert n == 0

    def test_release_respects_itask_cap(self):
        ctx, sys_ = make_system("sws", npes=1, qsize=1 << 12)
        q = sys_.handle(0)
        # Force a tiny cap by faking a huge PE count in the system.
        sys_.itask_cap = 3
        for i in range(100):
            q.enqueue(rec(i))
        n = release_now(ctx, q)
        assert n == 3
        assert q.stealable == 3

    def test_epoch_cycles_through_max_epochs(self):
        ctx, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        seen = [q.epoch]
        for i in range(5):
            q.enqueue(rec(i, 16))
            release_now(ctx, q)
            seen.append(q.epoch)
        assert seen == [0, 1, 0, 1, 0, 1]


class TestStealProtocol:
    def _setup(self, ntasks=20, npes=2, **kw):
        ctx, sys_ = make_system("sws", npes=npes, **kw)
        victim = sys_.handle(0)
        for i in range(ntasks):
            victim.enqueue(rec(i, sys_.config.task_size))
        release_now(ctx, victim)
        return ctx, sys_, victim

    def test_steal_claims_schedule_blocks_in_order(self):
        ctx, sys_, victim = self._setup(20)  # shared allotment = 10
        thief = sys_.handle(1)

        def t():
            volumes, ids = [], []
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    return volumes, ids, r.status
            # unreachable

        def t_loop():
            volumes, ids = [], []
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    return volumes, ids, r.status
                volumes.append(r.ntasks)
                ids.extend(rec_id(x) for x in r.records)

        ((volumes, ids, status),) = run_procs(ctx, t_loop())
        assert volumes == schedule(10)
        assert ids == list(range(10))
        assert status is StealStatus.EMPTY

    def test_steal_uses_exactly_three_comms(self):
        ctx, sys_, victim = self._setup(20)
        thief = sys_.handle(1)

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.success
        assert delta["total"] == 3
        assert delta["blocking"] == 2
        assert delta["amo_fetch_add"] == 1
        assert delta["get"] == 1
        assert delta["amo_add_nb"] == 1

    def test_failed_steal_costs_one_comm(self):
        ctx, sys_ = make_system("sws", npes=2)
        thief = sys_.handle(1)

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.status is StealStatus.EMPTY
        assert delta["total"] == 1
        assert delta["blocking"] == 1

    def test_steal_from_self_rejected(self):
        _, sys_ = make_system("sws", npes=2)
        with pytest.raises(ProtocolError):
            collect(sys_.handle(0).steal(0))

    def test_steal_from_locked_queue_disabled(self):
        ctx, sys_, victim = self._setup(20)
        thief = sys_.handle(1)
        victim.pe.local_store(META_REGION, STEALVAL, StealValEpoch.locked_word())

        def t():
            r = yield from thief.steal(0)
            return r

        (r,) = run_procs(ctx, t())
        assert r.status is StealStatus.DISABLED

    def test_probe_is_read_only(self):
        ctx, sys_, victim = self._setup(20)
        thief = sys_.handle(1)

        def t():
            before = ctx.metrics.snapshot()
            word = yield thief.probe(0)
            delta = ctx.metrics.delta(before)
            return word, delta

        ((word, delta),) = run_procs(ctx, t())
        assert thief.codec.has_work(word)
        view = thief.codec.unpack(word)
        assert view.itasks == 10
        assert view.asteals == 0
        assert delta["total"] == 1
        assert delta["amo_fetch"] == 1
        # Probe claimed nothing.
        assert victim.stealable == 10

    def test_concurrent_thieves_partition_allotment(self):
        ctx, sys_ = make_system("sws", npes=5)
        victim = sys_.handle(0)
        for i in range(64):
            victim.enqueue(rec(i))
        release_now(ctx, victim)  # allotment = 32

        def t(rank):
            q = sys_.handle(rank)
            got = []
            while True:
                r = yield from q.steal(0)
                if not r.success:
                    return got
                got.extend(rec_id(x) for x in r.records)

        results = run_procs(ctx, *(t(r) for r in range(1, 5)))
        stolen = sorted(x for got in results for x in got)
        assert stolen == list(range(32))  # exact partition, no dup/loss

    def test_wrapped_steal_two_gets(self):
        """A claimed block straddling the buffer boundary is fetched with
        two gets and reassembled in order."""
        ctx, sys_ = make_system("sws", npes=2, qsize=16)
        victim = sys_.handle(0)
        thief = sys_.handle(1)
        ts = sys_.config.task_size
        # Hand-place an allotment of 4 tasks whose first steal-half block
        # (2 tasks) covers slots {15, 0}.
        from repro.core.sws_queue import TASK_REGION

        for i, slot in enumerate([15, 0, 1, 2]):
            victim.pe.local_write_bytes(TASK_REGION, slot * ts, rec(100 + i, ts))
        victim.pe.local_store(
            META_REGION, STEALVAL, StealValEpoch.pack(0, 0, 4, 15)
        )

        def t():
            before = ctx.metrics.snapshot()
            r = yield from thief.steal(0)
            return ctx.metrics.delta(before), r

        ((delta, r),) = run_procs(ctx, t())
        assert r.success
        assert r.ntasks == 2
        assert delta["get"] == 2  # wrap needs two reads
        assert [rec_id(x) for x in r.records] == [100, 101]


class TestCompletionAndReclaim:
    def test_progress_folds_in_order(self):
        ctx, sys_ = make_system("sws", npes=3)
        victim = sys_.handle(0)
        for i in range(16):
            victim.enqueue(rec(i))

        def owner():
            yield from victim.release()  # allotment 8
            yield Delay(1.0)
            return victim.progress()

        def t(rank):
            q = sys_.handle(rank)
            yield Delay(1e-6)
            r = yield from q.steal(0)
            yield q.pe.quiet()
            return r.ntasks

        results = run_procs(ctx, owner(), t(1), t(2))
        assert results[0] == results[1] + results[2]
        assert victim.reclaim_tail == results[0]
        victim.invariants()

    def test_out_of_order_completion_blocks_fold(self):
        """A missing first completion pins reclamation (Figure 5)."""
        ctx, sys_ = make_system("sws", npes=2)
        victim = sys_.handle(0)
        for i in range(16):
            victim.enqueue(rec(i))
        release_now(ctx, victim)  # allotment 8: schedule [4,2,1,1]
        # Claim steal 0 manually (no completion will ever arrive).
        victim.pe.local_fetch_add(META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT)
        # Write a completion for steal 1 only.
        victim.pe.local_fetch_add(META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT)
        epoch = victim.epoch
        victim.pe.local_store(COMP_REGION, epoch * sys_.config.comp_slots + 1, 2)
        assert victim.progress() == 0  # steal 0 unfinished: nothing folds
        # Now finish steal 0; both fold.
        victim.pe.local_store(COMP_REGION, epoch * sys_.config.comp_slots + 0, 4)
        assert victim.progress() == 6
        assert victim.reclaim_tail == 6

    def test_corrupt_completion_detected(self):
        ctx, sys_ = make_system("sws", npes=2)
        victim = sys_.handle(0)
        for i in range(16):
            victim.enqueue(rec(i))
        release_now(ctx, victim)
        victim.pe.local_fetch_add(META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT)
        victim.pe.local_store(COMP_REGION, victim.epoch * sys_.config.comp_slots, 3)
        with pytest.raises(ProtocolError, match="completion slot"):
            victim.progress()

    def test_space_reclaimed_after_steals(self):
        ctx, sys_ = make_system("sws", npes=2, qsize=32)
        victim = sys_.handle(0)
        thief = sys_.handle(1)
        for i in range(32):
            victim.enqueue(rec(i))
        assert victim.free_slots == 0

        def owner():
            yield from victim.release()
            yield Delay(1.0)
            victim.progress()

        def t():
            while True:
                r = yield from thief.steal(0)
                if not r.success:
                    break
            yield thief.pe.quiet()

        run_procs(ctx, owner(), t())
        assert victim.free_slots == 16  # the whole allotment reclaimed
        victim.invariants()


class TestEpochMachinery:
    def test_acquire_waits_when_single_epoch_blocked(self):
        """epochs=1: the owner cannot reopen until in-flight steals land."""
        ctx, sys_ = make_system("sws", npes=2, max_epochs=1)
        victim = sys_.handle(0)
        thief = sys_.handle(1)
        for i in range(16):
            victim.enqueue(rec(i))

        acquire_span = {}

        def owner():
            yield from victim.release()
            # Wait until the thief's claim has landed but its copy and
            # completion are still in flight, then acquire.
            yield Delay(0.6e-6)
            t0 = ctx.engine.now
            yield from victim.acquire()
            acquire_span["dt"] = ctx.engine.now - t0

        def t():
            r = yield from thief.steal(0)
            assert r.success

        run_procs(ctx, owner(), t())
        # The acquire had to outwait the thief's copy + completion.
        assert acquire_span["dt"] > 1e-6

    def test_two_epochs_overlap_in_flight_steal(self):
        ctx, sys_ = make_system("sws", npes=2, max_epochs=2)
        victim = sys_.handle(0)
        thief = sys_.handle(1)
        for i in range(16):
            victim.enqueue(rec(i))

        acquire_span = {}

        def owner():
            yield from victim.release()
            yield Delay(0.5e-6)
            t0 = ctx.engine.now
            yield from victim.acquire()
            acquire_span["dt"] = ctx.engine.now - t0
            yield Delay(1.0)
            victim.progress()

        def t():
            yield Delay(0.1e-6)
            r = yield from thief.steal(0)
            assert r.success
            yield thief.pe.quiet()

        run_procs(ctx, owner(), t())
        assert acquire_span["dt"] < 1e-7  # no polling needed
        assert victim.epoch_wait_time == 0.0
        victim.invariants()

    @pytest.mark.parametrize("comp_slots", [24, 48])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_cycle_zeroes_only_the_claimed_slots(self, k, comp_slots):
        """Fig. 5 on the owner: a release + acquire cycle after k settled
        claims stores k completion words, whatever ``comp_slots`` is
        (zeroing the whole row stored ``comp_slots`` per reopen)."""
        ctx, sys_ = make_system("sws", npes=2, comp_slots=comp_slots)
        victim, thief = sys_.handle(0), sys_.handle(1)
        for i in range(64):
            victim.enqueue(rec(i))
        release_now(ctx, victim)  # epoch 1 advertises 32 tasks

        def t():
            for _ in range(k):
                assert (yield from thief.steal(0)).success
            yield thief.pe.quiet()

        run_procs(ctx, t())
        journal = ctx.heap.attach_journal()

        def owner():
            yield from victim.release()  # closes epoch 1 with k claims
            yield from victim.acquire()  # settles epoch 1: zeroes them

        run_procs(ctx, owner())
        stores = [off for _, region, off in journal if region == COMP_REGION]
        assert sorted(stores) == [comp_slots + i for i in range(k)]
        assert not any(ctx.heap.word_view(0, COMP_REGION))
        victim.invariants()

    def test_thief_aborts_during_owner_lock_window(self):
        """A claim landing while the stealval is locked is discarded and
        the thief told the queue is disabled."""
        ctx, sys_ = make_system("sws", npes=2)
        victim = sys_.handle(0)
        thief = sys_.handle(1)
        for i in range(16):
            victim.enqueue(rec(i))
        release_now(ctx, victim)

        def owner():
            # Hold the lock manually across the thief's claim.
            old = victim.pe.local_swap(
                META_REGION, STEALVAL, StealValEpoch.locked_word()
            )
            yield Delay(5e-6)
            victim.pe.local_store(META_REGION, STEALVAL, old)

        def t():
            yield Delay(1e-6)
            r = yield from thief.steal(0)
            return r

        results = run_procs(ctx, owner(), t())
        assert results[1].status is StealStatus.DISABLED
        # After the owner restored the word, the allotment is intact.
        assert victim.stealable == 8

    def test_invariants_detect_record_corruption(self):
        _, sys_ = make_system("sws", npes=1)
        q = sys_.handle(0)
        q.records[-1].open = False
        with pytest.raises(ProtocolError):
            q.invariants()
