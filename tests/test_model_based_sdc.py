"""Model-based stateful testing of the SDC baseline queue.

Mirror of ``test_model_based.py`` for the lock-based protocol: random
owner-operation sequences interleaved with synthetic thief steals
executed directly against the symmetric heap (lock, metadata read, tail
update, unlock, completion), checked against a set model after every
rule.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.config import QueueConfig
from repro.core.sdc_queue import (
    COMP_REGION,
    LOCK,
    META_REGION,
    SEQ,
    SPLIT,
    TAIL,
    TASK_REGION,
    SdcQueueSystem,
)
from repro.fabric.latency import ZERO_LATENCY
from repro.shmem.api import ShmemCtx

from .conftest import rec, rec_id


def run_now(ctx, gen):
    proc = ctx.engine.spawn(gen, "op")
    ctx.run()
    return proc.result


class SdcQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ctx = ShmemCtx(2, latency=ZERO_LATENCY)
        self.system = SdcQueueSystem(
            self.ctx, QueueConfig(qsize=128, task_size=16)
        )
        self.q = self.system.handle(0)
        self.next_id = 0
        self.local: list[int] = []
        self.shared: list[int] = []
        self.claimed: list[int] = []   # stolen, completion pending or sent
        self.dequeued: list[int] = []
        self.pending_completions: list[tuple[int, int]] = []  # (seq, n)

    # -- rules -----------------------------------------------------------
    @rule(n=st.integers(1, 8))
    def enqueue(self, n):
        for _ in range(n):
            if self.q.free_slots == 0:
                self.q.progress()
            if self.q.free_slots == 0:
                return
            self.q.enqueue(rec(self.next_id))
            self.local.append(self.next_id)
            self.next_id += 1

    @rule(n=st.integers(1, 8))
    def dequeue(self, n):
        for _ in range(n):
            r = self.q.dequeue()
            if r is None:
                assert not self.local
                return
            got = rec_id(r)
            assert got == self.local.pop(), "LIFO order violated"
            self.dequeued.append(got)

    @precondition(lambda self: len(self.local) >= 1 and not self.shared)
    @rule()
    def release(self):
        nshare = run_now(self.ctx, self.q.release())
        moved, self.local = self.local[:nshare], self.local[nshare:]
        self.shared.extend(moved)
        assert self.q.stealable == len(self.shared)

    @precondition(lambda self: len(self.shared) >= 1)
    @rule()
    def acquire(self):
        ntake = run_now(self.ctx, self.q.acquire())
        taken = self.shared[len(self.shared) - ntake :] if ntake else []
        self.shared = self.shared[: len(self.shared) - ntake]
        self.local = taken + self.local
        assert self.q.stealable == len(self.shared)
        assert self.q.local_count == len(self.local)

    @precondition(lambda self: len(self.shared) > 0)
    @rule()
    def thief_steal(self):
        """Synthetic thief: the six-step protocol via direct heap ops."""
        pe = self.ctx.pe(1)
        heap = self.ctx.heap
        assert heap.swap(0, META_REGION, LOCK, 1) == 0, "lock should be free"
        tail = heap.load(0, META_REGION, TAIL)
        seq = heap.load(0, META_REGION, SEQ)
        split = heap.load(0, META_REGION, SPLIT)
        avail = split - tail
        assert avail == len(self.shared)
        n = max(1, avail // 2)
        heap.store(0, META_REGION, TAIL, tail + n)
        heap.store(0, META_REGION, SEQ, seq + 1)
        heap.store(0, META_REGION, LOCK, 0)
        ts = self.system.config.task_size
        qsize = self.system.config.qsize
        ids = [
            rec_id(
                heap.read_bytes(0, TASK_REGION, ((tail + k) % qsize) * ts, ts)
            )
            for k in range(n)
        ]
        expect, self.shared = self.shared[:n], self.shared[n:]
        assert ids == expect, f"stole {ids}, expected {expect}"
        self.claimed.extend(ids)
        self.pending_completions.append((seq, n))

    @precondition(lambda self: len(self.pending_completions) > 0)
    @rule(data=st.data())
    def complete_steal(self, data):
        """Deliver one deferred-copy completion (any order)."""
        idx = data.draw(st.integers(0, len(self.pending_completions) - 1))
        seq, n = self.pending_completions.pop(idx)
        self.ctx.heap.fetch_add(
            0, COMP_REGION, seq % self.system.config.qsize, n
        )

    @rule()
    def progress(self):
        self.q.progress()

    # -- invariants --------------------------------------------------------
    @invariant()
    def conservation(self):
        everything = sorted(
            self.local + self.shared + self.claimed + self.dequeued
        )
        assert everything == list(range(self.next_id))

    @invariant()
    def queue_self_checks(self):
        self.q.invariants()
        assert self.q.local_count == len(self.local)
        assert self.q.stealable == len(self.shared)


TestSdcQueueModel = SdcQueueMachine.TestCase
TestSdcQueueModel.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
