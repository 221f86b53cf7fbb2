"""Property tests for the fence-free multiplicity deque (ff-mult).

The contract under test is *at-least-once with multiplicity*: arbitrary
owner/thief interleavings — including stale thief tail stores landing
after the owner republished — may duplicate a task but can never lose
one.  Two layers:

* deterministic Hypothesis-driven op sequences against the shim core
  (the threads backend's queue: the ff-mult layout on an in-process
  heap), with thief steals optionally split into read and (deferred,
  stale) store halves so duplicates occur on demand and shrink well;
* the real-thread race, where genuine preemption produces the races.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.queue import in_process_queue
from repro.threads.protocol import race

pytestmark = pytest.mark.timeout(120)

#: Op vocabulary for the deterministic interleavings.  "steal" is an
#: atomic read+store; "begin"/"finish" split one steal so its tail store
#: can land arbitrarily late (the duplicate-producing race).
OPS = st.lists(
    st.sampled_from(["release", "acquire", "steal", "begin", "finish"]),
    min_size=1,
    max_size=60,
)


def _drive(ntasks: int, chunk: int, ops: list[str]) -> tuple[list, list, Counter]:
    """Run one deterministic op sequence; returns (stolen, kept, mult)."""
    with in_process_queue("ff-mult", range(ntasks)) as queue:
        return _drive_queue(queue, chunk, ops)


def _drive_queue(queue, chunk: int, ops: list[str]):
    stolen: list[int] = []
    multiplicity: Counter = Counter()
    pending: list[tuple[int, list[int]]] = []  # deferred tail stores
    for op in ops:
        if op == "release":
            queue.release(chunk)
        elif op == "acquire":
            queue.acquire()
        elif op == "steal":
            res = queue.steal()
            if res.claimed:
                stolen.extend(res.claimed)
                multiplicity[res.index] += 1
        elif op == "begin":
            t, s = queue.tail.load(), queue.split.load()
            if s - t > 0:
                pending.append((t, queue._read_tasks(t, 1)))
        elif op == "finish" and pending:
            t, claimed = pending.pop(0)
            stolen.extend(claimed)
            multiplicity[t] += 1
            queue.tail.store(t + 1)  # possibly stale: may regress the tail
    # Land every still-deferred store, then the owner collects the rest.
    while pending:
        t, claimed = pending.pop(0)
        stolen.extend(claimed)
        multiplicity[t] += 1
        queue.tail.store(t + 1)
    queue.drain()
    return stolen, queue.take_kept(), multiplicity


@given(
    ntasks=st.integers(1, 80),
    chunk=st.integers(1, 20),
    ops=OPS,
)
@settings(max_examples=120, deadline=None)
def test_never_loses_a_task(ntasks, chunk, ops):
    """Any interleaving covers the full task set — losses impossible."""
    stolen, kept, _ = _drive(ntasks, chunk, ops)
    assert set(stolen) | set(kept) == set(range(ntasks))


@given(
    ntasks=st.integers(1, 80),
    chunk=st.integers(1, 20),
    ops=OPS,
)
@settings(max_examples=120, deadline=None)
def test_multiplicity_at_least_one(ntasks, chunk, ops):
    """Every handout has multiplicity >= 1; duplicates only via races.

    Tasks are their own buffer indices here, so the per-index handout
    counter must match the stolen multiset exactly, every count must be
    >= 1, and any task stolen more than once must also appear at most
    once in ``kept`` *per absorb* — i.e. total appearances equal total
    handouts plus owner absorptions.
    """
    stolen, kept, multiplicity = _drive(ntasks, chunk, ops)
    assert Counter(stolen) == multiplicity
    assert all(count >= 1 for count in multiplicity.values())
    # No fabrication: everything handed out was a real task.
    assert set(multiplicity) <= set(range(ntasks))
    assert set(kept) <= set(range(ntasks))


@given(
    ntasks=st.integers(1, 60),
    chunk=st.integers(1, 10),
    ops=OPS,
)
@settings(max_examples=60, deadline=None)
def test_atomic_steals_alone_are_exactly_once(ntasks, chunk, ops):
    """Without deferred stores there is no race, hence no duplicate."""
    ops = [op for op in ops if op in ("release", "acquire", "steal")]
    stolen, kept, multiplicity = _drive(ntasks, chunk, ops)
    assert sorted(stolen + kept) == list(range(ntasks))
    assert all(count == 1 for count in multiplicity.values())


@pytest.mark.parametrize("nthieves", (1, 4))
def test_thread_hammer_covers_and_accounts(nthieves):
    """Real threads: coverage holds and duplicates match the tally."""
    tasks = list(range(300))
    # One counter per thief: ``c[k] += 1`` is not atomic across threads.
    handouts = [Counter() for _ in range(nthieves)]
    with in_process_queue("ff-mult", tasks) as queue:
        loot, kept = race(
            queue, nthieves, len(tasks) // 8, 3,
            on_claim=lambda idx, res: handouts[idx].update((res.index,)))
    multiplicity = sum(handouts, Counter())
    flat = [t for chunk in loot for t in chunk]
    assert set(flat) | set(kept) == set(tasks)
    assert Counter(flat) == multiplicity
    assert all(count >= 1 for count in multiplicity.values())


def test_shim_release_absorbs_remainder(shim_queue):
    """A release with a non-empty shared window keeps leftovers safe."""
    queue = shim_queue("ff-mult", range(10))
    queue.release(4)          # exposes 0..3
    res = queue.steal()       # consumes 0
    assert res.claimed == [0]
    queue.release(4)          # absorbs 1..3, exposes 4..7
    assert sorted(queue.owner_kept) == [1, 2, 3]
    queue.drain()
    assert set(queue.take_kept()) == set(range(1, 10))
