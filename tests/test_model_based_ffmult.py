"""Model-based stateful testing of the ff-mult shim core + exploration.

Two layers, per the protocol's at-least-once contract:

* a Hypothesis :class:`RuleBasedStateMachine` drives the threads
  backend's queue (the ff-mult layout on an in-process heap) with owner
  operations interleaved with *two-phase* thief steals (``begin_steal``
  snapshots tail/split and reads the record; ``finish_steal`` lands the
  plain tail store arbitrarily late, possibly stale) against a
  reference model — every
  handout is checked for fabrication and multiplicity, and teardown
  checks full set coverage (duplicates legal, losses not);
* schedule exploration (:func:`repro.analysis.explore.explore`) runs the
  fabric queue under PCT and bounded-DFS schedulers with the
  semantics-aware invariant oracle armed, for both new protocols.
"""

from collections import Counter
from contextlib import ExitStack

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.analysis.explore import explore
from repro.mp.queue import in_process_queue

pytestmark = pytest.mark.timeout(300)

NTASKS = 64


class FfMultQueueMachine(RuleBasedStateMachine):
    """Owner ops racing two-phase thief steals against a set model.

    Tasks are their own buffer indices, so the reference model is a pair
    of counters keyed by task id: ``handouts`` (thief-side multiplicity)
    and whatever the owner absorbed.  A ``finish_steal`` may land a tail
    store that is stale by the time it applies — the duplicate-producing
    race the protocol is designed to tolerate.
    """

    def __init__(self):
        super().__init__()
        self._heap = ExitStack()
        self.q = self._heap.enter_context(
            in_process_queue("ff-mult", range(NTASKS)))
        self.stolen: list[int] = []
        self.handouts: Counter = Counter()
        self.pending: list[tuple[int, list[int]]] = []

    # -- owner ------------------------------------------------------------
    @rule(count=st.integers(1, 16))
    def release(self, count):
        before = len(self.q.owner_kept)
        self.q.release(count)
        # Release absorbs the shared remainder first: whatever it kept
        # must be real tasks, newly accounted for.
        absorbed = self.q.owner_kept[before:]
        assert all(0 <= t < NTASKS for t in absorbed)

    @rule()
    def acquire(self):
        taken = self.q.acquire()
        assert all(0 <= t < NTASKS for t in taken)

    # -- thief ------------------------------------------------------------
    @rule()
    def steal_now(self):
        """An uncontended steal: read and store back to back."""
        res = self.q.steal()
        if res.claimed:
            self.stolen.extend(res.claimed)
            self.handouts[res.index] += 1
            assert res.claimed == [res.index]

    @rule()
    def begin_steal(self):
        """Snapshot tail/split and copy the record; defer the store."""
        t, s = self.q.tail.load(), self.q.split.load()
        if s - t > 0:
            self.pending.append((t, self.q._read_tasks(t, 1)))

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def finish_steal(self, data):
        """Land one deferred tail store — possibly stale by now."""
        idx = data.draw(st.integers(0, len(self.pending) - 1))
        t, claimed = self.pending.pop(idx)
        self.stolen.extend(claimed)
        self.handouts[t] += 1
        self.q.tail.store(t + 1)

    # -- invariants --------------------------------------------------------
    @invariant()
    def no_fabrication(self):
        """Everything handed out is a genuine task, handed out >= once."""
        assert set(self.stolen) <= set(range(NTASKS))
        assert set(self.q.owner_kept) <= set(range(NTASKS))
        assert Counter(self.stolen) == self.handouts
        assert all(c >= 1 for c in self.handouts.values())

    @invariant()
    def cursor_bounds(self):
        assert 0 <= self.q.cursor <= NTASKS
        assert self.q.split.load() <= self.q.cursor

    def teardown(self):
        """Quiesce and check the at-least-once conservation contract,
        then unlink the heap."""
        with self._heap:
            while self.pending:
                t, claimed = self.pending.pop(0)
                self.stolen.extend(claimed)
                self.q.tail.store(t + 1)
            self.q.drain()
            kept = self.q.take_kept()
            assert set(self.stolen) | set(kept) == set(range(NTASKS)), (
                "at-least-once violated: some task was lost"
            )


TestFfMultQueueModel = FfMultQueueMachine.TestCase
TestFfMultQueueModel.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)


class TestExplorationWithOracle:
    """PCT / bounded-DFS schedules with the conservation oracle armed.

    The oracle is parameterized on the protocol's declared semantics
    contract: for ff-mult it books ``executed == spawned + dup_handouts``
    over the deduplicated set; for localized it enforces strict
    exactly-once conservation (the SWS core is unchanged).
    """

    @pytest.mark.parametrize("impl", ("ff-mult", "localized"))
    def test_pct_schedules_clean(self, impl):
        report = explore("flat", impl, policy="pct", seeds=range(3))
        assert report.clean, report.render()

    @pytest.mark.parametrize("impl", ("ff-mult", "localized"))
    def test_random_tree_schedules_clean(self, impl):
        report = explore("tree", impl, policy="random", seeds=range(3))
        assert report.clean, report.render()

    def test_bounded_dfs_clean_ffmult(self):
        report = explore("flat", "ff-mult", policy="dfs", dfs_depth=3,
                         max_runs=30)
        assert report.runs > 1
        assert report.clean, report.render()
