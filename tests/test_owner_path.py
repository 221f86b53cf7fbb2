"""The owner's batch loop: a write-back window over the local portion.

The local portion ``[split, head)`` is the queue's list of ``Task``s; a
task becomes a record only when ``release`` writes it into its slot
(docs/protocols.md §0; docs/performance.md, "The local portion holds
tasks").  ``Worker._execute_batch`` pops that list and keeps the tasks
spawned inside a batch on a stack of its own, pushed back once before
the batch's first ``yield`` (docs/simulator.md, "Batching").  The owner
path is per protocol, so every check runs on all five.  Three
host-independent checks:

* **differential** — the loop it replaced (one ``dequeue`` →
  ``parse_record`` → body → ``serialize`` → ``enqueue`` per task) runs
  the same grid, one column with lifeline deliveries included; executed
  payloads per PE, every statistic and the queue at every event
  boundary (the shared slots' bytes, and the local list as the records
  it stands for) must be identical.  Controls: a batch that runs
  children oldest first, and a ``release`` that publishes a split with
  no records under it, both fail it; ``ff-mult`` without write-through
  runs a different computation;
* **edges** — the capacity test and its ``progress()`` call fire at the
  same child, an oversized payload is refused at spawn, and a task
  function that raises leaves no half-written queue behind;
* a **budget in counts**: Python calls per executed task, and how many
  tasks ever become a record.
"""

from __future__ import annotations

import contextlib
import sys
import types
from collections import Counter
from typing import Generator

import pytest

from repro.core.config import QueueConfig
from repro.core.ffmult_queue import FfMultQueue
from repro.core.split_queue import SplitQueue
from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError
from repro.runtime.pool import TaskPool
from repro.runtime.lifeline import LifelineConfig
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task, parse_record
from repro.runtime.worker import WorkerConfig
from repro.workloads.bpc import BpcParams, BpcWorkload
from repro.workloads.uts import TEST_SMALL, UtsWorkload

from .test_run_pins import _row
from .test_thief_path import CallCounter

IMPLS = ["sws", "sws-v1", "sdc", "localized", "ff-mult"]
POLICIES = ["work_first", "help_first"]
NPES = 4


# ----------------------------------------------------------------------
# The reference: the per-task loop the batch window replaced
# ----------------------------------------------------------------------
def reference_execute_batch(self) -> Generator:
    """Run up to ``batch_max`` local tasks as one compute segment."""
    queue = self.queue
    stats = self.stats
    budget = min(self.cfg.batch_max, queue.local_count)
    if stats.tasks_executed == 0 and budget > 0:
        stats.first_task_time = self.now
    dequeue = queue.dequeue
    enqueue = queue.enqueue
    fns = self.registry.dispatch_table()
    nfns = len(fns)
    tc = self.tc
    task_size = self.task_size
    overhead = self.cfg.task_overhead
    help_first = self.cfg.spawn_policy == "help_first"
    multi = self.npes > 1
    release_min = self.cfg.release_min_local
    shared_empty = multi and queue.stealable == 0
    executed = 0
    duration = 0.0
    spawned = 0
    task_time = 0.0
    while executed < budget:
        rec = dequeue()
        if rec is None:
            break
        fn_id, payload = parse_record(rec)
        if fn_id >= nfns:
            raise ProtocolError(f"task references unregistered fn_id {fn_id}")
        outcome = fns[fn_id](payload, tc)
        children = outcome.children
        for child in children:
            enqueue(child.serialize(task_size))
        spawned += len(children)
        task_time += outcome.duration
        duration += outcome.duration + overhead
        executed += 1
        if (
            multi
            and ((help_first and children) or shared_empty)
            and queue.local_count >= release_min
        ):
            break
    stats.tasks_spawned += spawned
    stats.task_time += task_time
    stats.tasks_executed += executed
    if duration > 0:
        yield Delay(duration)


def use_reference(pool: TaskPool) -> None:
    """The per-task loop, over queues that write every record as it is
    pushed (the buffer then holds the local portion too, as it once did):
    a ``release`` that failed to write its records shows against it."""
    for w in pool.workers:
        w._execute_batch = types.MethodType(reference_execute_batch, w)
        w.queue.write_through = True


# ----------------------------------------------------------------------
# Observation: what ran where, and what the buffer held at every event
# ----------------------------------------------------------------------
def log_executions(registry: TaskRegistry) -> list:
    """Wrap every registered function: ``(rank, fn_id, payload)`` per run."""
    log: list = []
    fns = registry.dispatch_table()
    for fn_id, fn in enumerate(list(fns)):
        def logged(payload, tc, _fn=fn, _id=fn_id):
            log.append((tc.rank, _id, payload))
            return _fn(payload, tc)
        fns[fn_id] = logged
    return log


def queue_state(queue) -> tuple:
    """Indices plus the record of every occupied slot, oldest first: the
    whole of what a thief, the injector or the oracle can read.  Below
    the split that is the buffer's bytes; the local portion is the
    owner's list, rendered as the records ``release`` would write.  Slots
    above ``head`` hold dead records nobody addresses."""
    ts, qsize, buf = queue._tsize, queue._qsize, queue._tasks
    split = queue._indices()[-2]
    assert queue.head - split == len(queue.local)   # head counts the list
    lo, hi = queue.reclaim_tail % qsize, split % qsize
    if split - queue.reclaim_tail == qsize or lo > hi:
        live = bytes(buf[lo * ts:]) + bytes(buf[: hi * ts])
    else:
        live = bytes(buf[lo * ts : hi * ts])
    live += b"".join(t.serialize(ts) for t in queue.local)
    return (queue.reclaim_tail, queue.head, queue.local_count,
            queue.stealable, live)


def watch_buffers(pool: TaskPool) -> list:
    """One ``queue_state`` per PE after every engine event."""
    trace: list = []
    queues = [w.queue for w in pool.workers]
    pool.ctx.engine.observers.append(
        lambda: trace.append([queue_state(q) for q in queues])
    )
    return trace


def per_pe(log: list) -> list:
    return [[e[1:] for e in log if e[0] == rank] for rank in range(NPES)]


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def uts(registry):
    return [UtsWorkload(registry, TEST_SMALL).seed_task()]


def bpc(registry):
    params = BpcParams(n_consumers=16, depth=8, consumer_time=20e-6,
                       producer_time=4e-6)
    return [BpcWorkload(registry, params).seed_task()]


def lifelines(registry):
    """UTS on a pool whose idle PEs quiesce on lifelines (after one failed
    steal) and are fed through the inbox by any donor with a spare task,
    from ``_manage`` after every batch."""
    return uts(registry)


WORKLOADS = {"uts": uts, "bpc": bpc, "lifelines": lifelines}


def build(impl, policy, batch_max, workload):
    registry = TaskRegistry()
    seeds = WORKLOADS[workload](registry)
    log = log_executions(registry)
    feed = {}
    if workload == "lifelines":
        feed = dict(lifelines=True, lifeline_config=LifelineConfig(
            z_failures=1, donor_min_local=1))
    pool = TaskPool(
        NPES, registry, impl=impl, seed=11,
        worker_config=WorkerConfig(batch_max=batch_max, spawn_policy=policy),
        **feed,
    )
    pool.seed(0, seeds)
    return pool, log


# ----------------------------------------------------------------------
# (i) differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("batch_max", [1, 3, 64])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("impl", IMPLS)
def test_same_run_as_the_per_task_loop(impl, policy, batch_max, workload):
    want_pool, want_log = build(impl, policy, batch_max, workload)
    use_reference(want_pool)
    want_trace = watch_buffers(want_pool)
    want = _row(want_pool.run)

    pool, log = build(impl, policy, batch_max, workload)
    trace = watch_buffers(pool)
    got = _row(pool.run)

    assert per_pe(log) == per_pe(want_log)
    assert got == want
    assert len(trace) == len(want_trace)
    for event, (a, b) in enumerate(zip(trace, want_trace)):
        assert a == b, f"task buffers differ after event {event}"
    assert len(log) > 100  # the grid ran real work
    if workload == "lifelines":
        assert pool.ctx.metrics.total_ops("put_signal") > 0  # and fed it


def test_control_the_differential_sees_a_reordered_batch():
    """The comparison above would be vacuous if it could not fail: run a
    task's children oldest first and both observations move."""
    want_pool, want_log = build("sws", "work_first", 64, "uts")
    want_trace = watch_buffers(want_pool)
    want_pool.run()

    pool, log = build("sws", "work_first", 64, "uts")
    fns = pool.registry.dispatch_table()
    node = fns[0]

    def oldest_first(payload, tc):
        outcome = node(payload, tc)
        return TaskOutcome(outcome.duration, list(outcome.children)[::-1])

    fns[0] = oldest_first
    trace = watch_buffers(pool)
    pool.run()
    assert sorted(e[1:] for e in log) == sorted(e[1:] for e in want_log)
    assert per_pe(log) != per_pe(want_log)
    assert trace != want_trace


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_control_the_differential_sees_a_release_that_writes_no_record(
    monkeypatch, impl
):
    """A ``release`` that publishes the new split but skips the record
    write leaves stale bytes where thieves copy from: the queue trace
    moves at the first release, before any thief has run them.  (The
    reference's queues wrote every record at push, so the same broken
    ``release`` costs them nothing.)"""
    def expose_unwritten(self, nshare):
        del self.local[:nshare]

    monkeypatch.setattr(SplitQueue, "_expose", expose_unwritten)
    want_pool, _ = build(impl, "work_first", 64, "uts")
    use_reference(want_pool)
    want_trace = watch_buffers(want_pool)
    want_pool.run()

    pool, _ = build(impl, "work_first", 64, "uts")
    trace = watch_buffers(pool)
    with contextlib.suppress(Exception):   # a thief may run what it copied
        pool.run()
    first = next(i for i, (a, b) in enumerate(zip(trace, want_trace)) if a != b)
    assert any(q[3] for q in want_trace[first])   # tasks were exposed


def test_ffmult_without_write_through_runs_another_computation(monkeypatch):
    """``ff-mult``'s thief reads the metadata, then copies the slot at the
    tail; an ``acquire`` in between can take that slot back and a batch
    can push a new task into it.  Its claim books charge the copy to the
    new task, so the slot must hold that task's record: with the record
    written only at ``release`` the thief runs the stale one, and on
    this cell (also work_first/3/lifelines) a different task runs twice."""
    want_pool, want_log = build("ff-mult", "help_first", 3, "lifelines")
    want = _row(want_pool.run)
    monkeypatch.setattr(FfMultQueue, "write_through", False)
    pool, log = build("ff-mult", "help_first", 3, "lifelines")
    got = _row(pool.run)
    assert Counter(e[1:] for e in log) != Counter(e[1:] for e in want_log)
    assert got != want


# ----------------------------------------------------------------------
# (ii) edges
# ----------------------------------------------------------------------
def fan_pool(reference: bool, qsize: int):
    """A fan-out-6 tree under a queue too small for it: the buffer fills
    mid-batch while thieves hold claimed slots, so the capacity test has
    something to reclaim before it finally has nothing."""
    registry = TaskRegistry()

    def node(payload, tc):
        depth = payload[0]
        children = [Task(0, bytes([depth + 1, i])) for i in range(6)]
        return TaskOutcome(3e-6, children if depth < 9 else ())

    registry.register("fan.node", node)
    log = log_executions(registry)
    pool = TaskPool(4, registry, impl="sws", seed=5,
                    queue_config=QueueConfig(qsize=qsize, task_size=16),
                    worker_config=WorkerConfig(progress_every=1_000_000))
    pool.seed(0, [Task(0, bytes([0, 0]))])
    if reference:
        use_reference(pool)
    # Every reclaim the capacity test asks for: who, after how many
    # executions, and how many slots came back.
    reclaims: list = []
    for w in pool.workers:
        def progress(_w=w, _inner=w.queue.progress):
            freed = _inner()
            if sys._getframe(1).f_code.co_name == "room":
                reclaims.append((_w.rank, len(log), freed))
            return freed
        w.queue.progress = progress
    return pool, log, reclaims


def test_capacity_test_and_progress_fire_at_the_same_child():
    outcomes = []
    for reference in (True, False):
        pool, log, reclaims = fan_pool(reference, qsize=40)
        with pytest.raises(ProtocolError) as err:
            pool.run()
        outcomes.append((
            str(err.value), log, reclaims,
            [queue_state(w.queue) for w in pool.workers],
        ))
    want, got = outcomes
    assert got[0] == want[0]
    assert "queue overflow (qsize=40)" in got[0]
    assert got[1] == want[1]            # the same task overflowed
    assert got[2] == want[2]            # progress() at the same children
    assert any(freed > 0 for _, _, freed in got[2])   # ... and it reclaimed
    assert got[2][-1][2] == 0           # the last one had nothing left
    for mine, reference in zip(got[3], want[3]):
        assert_same_below_the_batch(mine, reference)


def assert_same_below_the_batch(mine: tuple, reference: tuple) -> None:
    """After a batch that raised: the reference had turned the children
    of the broken batch into records one by one, the write-back never
    ran.  Everything else — the reclaim point, the shared portion, every
    record that was in the buffer when the batch began and was not yet
    executed — is the same, byte for byte."""
    assert mine[0] == reference[0]              # reclaim_tail
    assert mine[3] == reference[3]              # stealable
    assert mine[1] <= reference[1]              # head
    assert reference[4].startswith(mine[4])     # live bytes


def test_oversized_child_is_refused_at_spawn_not_at_write_back():
    registry = TaskRegistry()
    ran: list = []

    def parent(payload, tc):
        ran.append("parent")
        return TaskOutcome(1e-6, [Task(1, bytes(29))])   # 4 + 29 > 32

    def child(payload, tc):
        ran.append("child")
        return TaskOutcome(1e-6)

    registry.register("parent", parent)
    registry.register("child", child)
    pool = TaskPool(1, registry, queue_config=QueueConfig(task_size=32))
    # Two seeds, so the batch has budget to run the child in place.
    pool.seed(0, [Task(1), Task(0)])
    with pytest.raises(ProtocolError, match="task needs 33 bytes; record size is 32"):
        pool.run()
    assert ran == ["parent"]


@pytest.mark.parametrize("oracle", [False, True])
def test_a_raising_task_leaves_no_half_written_buffer(oracle):
    class Boom(Exception):
        pass

    states = []
    for reference in (True, False):
        registry = TaskRegistry()
        calls = [0]

        def node(payload, tc, _calls=calls):
            _calls[0] += 1
            if _calls[0] == 40:
                raise Boom
            depth = payload[0]
            kids = [Task(0, bytes([depth + 1, i])) for i in range(3)]
            return TaskOutcome(1e-6, kids if depth < 5 else ())

        registry.register("node", node)
        pool = TaskPool(1, registry, oracle=oracle,
                        queue_config=QueueConfig(qsize=64, task_size=16))
        pool.seed(0, [Task(0, bytes([0, 0])) for _ in range(4)])
        if reference:
            use_reference(pool)
        with pytest.raises(Boom):
            pool.run()
        queue = pool.workers[0].queue
        queue.invariants()
        states.append(queue_state(queue))
    assert_same_below_the_batch(states[1], states[0])
    assert 0 < states[1][2] < states[0][2]   # the batch had spawned, unwritten


# ----------------------------------------------------------------------
# TaskOutcome: a leaf's children are the one immutable ()
# ----------------------------------------------------------------------
def test_outcomes_never_share_a_mutable_list():
    a, b = TaskOutcome(1e-6), TaskOutcome(2e-6)
    for leaf in (a, b):
        assert not leaf.children
        assert len(leaf.children) == 0 and list(leaf.children) == []
        with pytest.raises(AttributeError):
            leaf.children.append(Task(0))
    assert not b.children   # nothing leaked from the attempts on ``a``
    mine = [Task(0)]
    assert TaskOutcome(1e-6, mine).children is mine


def test_appending_to_a_leaf_outcome_fails_the_run_loudly():
    registry = TaskRegistry()

    def sloppy(payload, tc):
        outcome = TaskOutcome(1e-6)
        outcome.children.append(Task(0))
        return outcome

    registry.register("sloppy", sloppy)
    pool = TaskPool(1, registry)
    pool.seed(0, [Task(0)])
    with pytest.raises(AttributeError):
        pool.run()


# ----------------------------------------------------------------------
# (iii) the budget, in counts
# ----------------------------------------------------------------------
def test_calls_per_executed_task():
    registry = TaskRegistry()
    workload = UtsWorkload(registry, TEST_SMALL)
    pool = TaskPool(1, registry, impl="sws", seed=7)
    pool.seed(0, [workload.seed_task()])
    counter = CallCounter()
    stats = counter.run(pool)
    tasks = stats.total_tasks
    assert tasks == 3542
    # 10.35 calls per task before the batch window, 5.58 with it while
    # the local portion held records, 4.55 now; the bound leaves 5 %.
    assert sum(counter.calls.values()) / tasks <= 4.8
    # One PE never releases: no task ever becomes a record.
    for code in (Task.serialize.__code__, parse_record.__code__,
                 SplitQueue._store.__code__):
        assert counter.calls[code] == 0, code.co_name
