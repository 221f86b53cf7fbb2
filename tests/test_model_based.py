"""Model-based stateful testing of the SWS queue.

A hypothesis rule machine drives random sequences of owner operations
(enqueue / dequeue / release / acquire / progress) interleaved with
synthetic thief claims executed directly against the symmetric heap.
A simple set model tracks where every task id must be; after every rule
the machine checks conservation and the queue's own invariants.

This explores state-space corners the scenario tests don't reach —
epoch-slot reuse after partial claims, acquire on half-claimed
allotments, progress against unfinished prefixes.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.config import QueueConfig
from repro.core.steal_half import max_steals, steal_displacement, steal_volume
from repro.core.stealval import StealValEpoch
from repro.core.sws_queue import COMP_REGION, META_REGION, STEALVAL, SwsQueueSystem
from repro.fabric.latency import ZERO_LATENCY
from repro.shmem.api import ShmemCtx

from .conftest import rec, rec_id


def run_now(ctx, gen):
    """Run an owner-op generator to completion on an idle context."""
    proc = ctx.engine.spawn(gen, "op")
    ctx.run()
    return proc.result


class SwsQueueMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ctx = ShmemCtx(2, latency=ZERO_LATENCY)
        self.system = SwsQueueSystem(
            self.ctx, QueueConfig(qsize=128, task_size=16)
        )
        self.q = self.system.handle(0)
        self.next_id = 0
        # Model: where each task id lives.
        self.local: list[int] = []     # owner's local portion (LIFO order)
        self.shared: list[int] = []    # unclaimed shared tasks, tail order
        self.claimed: list[int] = []   # stolen by the synthetic thief
        self.dequeued: list[int] = []  # executed locally
        self.inflight: list[tuple[int, int, int]] = []  # (epoch, ordinal, vol)

    # -- helpers ---------------------------------------------------------
    def _stealval(self):
        return StealValEpoch.unpack(self.q.pe.local_load(META_REGION, STEALVAL))

    def _flush_inflight(self):
        """Deliver every withheld completion.

        Management ops poll (forever, in this thread-less harness) when
        the next epoch slot still has an unfinished steal, so the rules
        flush completions before release/acquire — out-of-order delivery
        is still exercised by the complete_steal/progress rules.
        """
        for epoch, ordinal, vol in self.inflight:
            off = epoch * self.system.config.comp_slots + ordinal
            self.q.pe.local_fetch_add(COMP_REGION, off, vol)
        self.inflight.clear()

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

    @precondition(lambda self: len(self.local) >= 1)
    @rule()
    def release(self):
        self._flush_inflight()
        before_shared = len(self.shared)
        nshare = run_now(self.ctx, self.q.release())
        # Model: the oldest `nshare` local tasks join the shared tail end.
        moved, self.local = self.local[:nshare], self.local[nshare:]
        self.shared.extend(moved)
        assert len(self.shared) == before_shared + nshare
        assert self.q.stealable == len(self.shared)

    @rule()
    def acquire(self):
        self._flush_inflight()
        ntake = run_now(self.ctx, self.q.acquire())
        # Model: the owner takes the top (newest) half of shared back.
        taken = self.shared[len(self.shared) - ntake :]
        self.shared = self.shared[: len(self.shared) - ntake]
        # They become the oldest local tasks.
        self.local = taken + self.local
        assert self.q.stealable == len(self.shared)
        assert self.q.local_count == len(self.local)

    @precondition(lambda self: len(self.shared) > 0)
    @rule()
    def thief_claim(self):
        """Synthetic thief: claim the next block via a direct fetch-add."""
        old = self.q.pe.local_fetch_add(
            META_REGION, STEALVAL, StealValEpoch.ASTEAL_UNIT
        )
        view = StealValEpoch.unpack(old)
        assert not view.locked
        vol = steal_volume(view.itasks, view.asteals)
        assert vol > 0, "model said shared was non-empty"
        disp = steal_displacement(view.itasks, view.asteals)
        from repro.core.sws_queue import TASK_REGION

        ts = self.system.config.task_size
        qsize = self.system.config.qsize
        ids = []
        for k in range(vol):
            slot = (view.tail + disp + k) % qsize
            ids.append(rec_id(self.q.pe.local_read_bytes(TASK_REGION, slot * ts, ts)))
        # The thief must receive exactly the oldest unclaimed tasks.
        expect, self.shared = self.shared[:vol], self.shared[vol:]
        assert ids == expect, f"claimed {ids}, expected {expect}"
        self.claimed.extend(ids)
        self.inflight.append((view.epoch, view.asteals, vol))

    @precondition(lambda self: len(self.inflight) > 0)
    @rule(data=st.data())
    def complete_steal(self, data):
        """Deliver one pending completion (any order)."""
        idx = data.draw(st.integers(0, len(self.inflight) - 1))
        epoch, ordinal, vol = self.inflight.pop(idx)
        off = epoch * self.system.config.comp_slots + ordinal
        self.q.pe.local_fetch_add(COMP_REGION, off, vol)

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


TestSwsQueueModel = SwsQueueMachine.TestCase
TestSwsQueueModel.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
