"""Tests for put-with-signal and the inbox fast path."""

from repro.fabric.engine import Delay
from repro.runtime.inbox import InboxSystem
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, rec, rec_id, run_procs


def make_ctx(npes=2):
    ctx = ShmemCtx(npes, latency=TEST_LAT)
    ctx.heap.alloc_bytes("d", 1024)
    ctx.heap.alloc_words("sig", 4)
    return ctx


class TestPutSignal:
    def test_data_and_signal_delivered_atomically(self):
        ctx = make_ctx()
        sender, receiver = ctx.pe(0), ctx.pe(1)
        seen = {}

        def s():
            yield sender.put_signal_nb(1, "d", 0, b"payload", "sig", 0, 7)

        def r():
            v = yield receiver.wait_until("sig", 0, lambda x: x == 7)
            # Signal observed => payload must be fully visible.
            seen["data"] = receiver.local_read_bytes("d", 0, 7)
            seen["sig"] = v

        run_procs(ctx, s(), r())
        assert seen["data"] == b"payload"
        assert seen["sig"] == 7

    def test_counts_as_one_nonblocking_op(self):
        ctx = make_ctx()
        sender = ctx.pe(0)

        def s():
            before = ctx.metrics.snapshot()
            yield sender.put_signal_nb(1, "d", 0, b"xy", "sig", 1, 1)
            mid = ctx.metrics.delta(before)
            yield sender.quiet()
            return mid

        (delta,) = run_procs(ctx, s())
        assert delta["put_signal"] == 1
        assert delta["total"] == 1
        assert delta["blocking"] == 0

    def test_initiator_returns_after_injection(self):
        ctx = make_ctx()
        sender = ctx.pe(0)
        times = {}

        def s():
            yield sender.put_signal_nb(1, "d", 0, bytes(100), "sig", 0, 1)
            times["return"] = ctx.now
            yield sender.quiet()
            times["quiet"] = ctx.now

        run_procs(ctx, s())
        assert times["return"] < 1e-6  # just injection + payload
        assert times["quiet"] > times["return"]


class TestInboxFastPath:
    def test_fast_path_delivers(self):
        """Two communications per record: the reserve and one put_signal."""
        ctx = ShmemCtx(2, latency=TEST_LAT)
        system = InboxSystem(ctx, 16, 16)
        sender, owner = system.handle(1), system.handle(0)
        got = {}

        def s():
            before = ctx.metrics.snapshot()
            for i in range(6):
                yield from sender.send(0, rec(i))
            got["comms"] = ctx.metrics.delta(before)
            yield sender.pe.quiet()

        def o():
            yield Delay(1.0)
            got["records"] = [rec_id(r) for r in owner.drain()]

        run_procs(ctx, s(), o())
        assert got["records"] == list(range(6))
        assert got["comms"]["total"] == 2 * 6   # reserve + put_signal
        assert got["comms"]["put_signal"] == 6

    def test_pool_lifeline_delivery_uses_fast_path(self):
        from repro.runtime.lifeline import LifelineConfig
        from repro.runtime.pool import TaskPool
        from repro.runtime.registry import TaskRegistry
        from repro.workloads.uts import TEST_SMALL, UtsWorkload

        reg = TaskRegistry()
        pool = TaskPool(4, reg, seed=11, lifelines=True,
                        lifeline_config=LifelineConfig(z_failures=1,
                                                       donor_min_local=1))
        pool.seed(0, [UtsWorkload(reg, TEST_SMALL).seed_task()])
        stats = pool.run()
        assert stats.comm["put_signal"] > 0
