"""Tests for the lifeline delivery inbox (an MPSC ring per PE)."""

import pytest

from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError
from repro.runtime.inbox import InboxSystem
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, rec, rec_id, run_procs


def make(npes=3, capacity=16, task_size=16):
    ctx = ShmemCtx(npes, latency=TEST_LAT)
    return ctx, InboxSystem(ctx, capacity, task_size)


class TestInbox:
    def test_send_and_drain(self):
        ctx, sys_ = make()
        sender = sys_.handle(1)
        owner = sys_.handle(0)

        def s():
            yield from sender.send(0, rec(7))
            yield from sender.send(0, rec(8))

        def o():
            yield Delay(1.0)
            return [rec_id(r) for r in owner.drain()]

        results = run_procs(ctx, s(), o())
        assert results[1] == [7, 8]

    def test_multiple_producers_all_arrive(self):
        ctx, sys_ = make(npes=5, capacity=64)
        owner = sys_.handle(0)

        def s(rank):
            h = sys_.handle(rank)
            for i in range(8):
                yield from h.send(0, rec(rank * 100 + i))

        def o():
            yield Delay(1.0)
            return sorted(rec_id(r) for r in owner.drain())

        results = run_procs(ctx, *(s(r) for r in range(1, 5)), o())
        expected = sorted(r * 100 + i for r in range(1, 5) for i in range(8))
        assert results[-1] == expected

    def test_drain_stops_at_gap(self):
        ctx, sys_ = make()
        owner = sys_.handle(0)
        assert owner.drain() == []
        assert not owner.pending_hint

    def test_ring_reuse_after_drain(self):
        ctx, sys_ = make(capacity=4)
        sender = sys_.handle(1)
        owner = sys_.handle(0)

        def s():
            for wave in range(3):
                for i in range(4):
                    yield from sender.send(0, rec(wave * 10 + i))
                yield Delay(1.0)

        def o():
            got = []
            for _ in range(3):
                yield Delay(0.9)
                got.extend(rec_id(r) for r in owner.drain())
                yield Delay(0.1)
            return got

        results = run_procs(ctx, s(), o())
        assert len(results[1]) == 12

    def test_overrun_detected(self):
        ctx, sys_ = make(capacity=2)
        sender = sys_.handle(1)
        owner = sys_.handle(0)

        def s():
            for i in range(4):  # laps the 2-slot ring without drains
                yield from sender.send(0, rec(i))

        def o():
            yield Delay(1.0)
            owner.drain()

        with pytest.raises(ProtocolError, match="overrun"):
            run_procs(ctx, s(), o())

    def test_self_send_rejected(self):
        _, sys_ = make()
        h = sys_.handle(0)
        with pytest.raises(ProtocolError):
            gen = h.send(0, rec(1))
            next(gen)

    def test_wrong_size_rejected(self):
        _, sys_ = make()
        h = sys_.handle(1)
        with pytest.raises(ProtocolError):
            gen = h.send(0, b"tiny")
            next(gen)

    def test_bad_construction(self):
        ctx = ShmemCtx(2)
        with pytest.raises(ValueError):
            InboxSystem(ctx, 0, 16)

