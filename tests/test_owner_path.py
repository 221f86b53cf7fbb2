"""The owner's batch loop: a write-back window over the local portion.

``Worker._execute_batch`` keeps the tasks spawned inside a batch on a
Python list and turns the survivors into records once, before the
batch's first ``yield`` (docs/simulator.md, "Batching";
docs/performance.md, "The owner path").  Three host-independent checks:

* **differential** — the loop it replaced (one ``dequeue`` →
  ``parse_record`` → body → ``serialize`` → ``enqueue`` per task) runs
  the same grid, one column with lifeline deliveries included; executed
  payloads per PE, every statistic and the task buffer at every event
  boundary must be identical;
* **edges** — the capacity test and its ``progress()`` call fire at the
  same child, an oversized payload is refused at spawn, and a task
  function that raises leaves no half-written buffer behind;
* a **budget in counts**: Python calls per executed task, and how many
  tasks ever become a record.
"""

from __future__ import annotations

import sys
import types
from typing import Generator

import pytest

from repro.core.config import QueueConfig
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
    for w in pool.workers:
        w._execute_batch = types.MethodType(reference_execute_batch, w)


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
    """Indices plus the bytes of every occupied slot, oldest first: the
    whole of what a thief, the injector or the oracle can read.  Slots
    above ``head`` hold dead records nobody addresses."""
    ts, qsize, buf = queue._tsize, queue._qsize, queue._tasks
    lo, hi = queue.reclaim_tail % qsize, queue.head % qsize
    if queue.head - queue.reclaim_tail == qsize or lo > hi:
        live = bytes(buf[lo * ts:]) + bytes(buf[: hi * ts])
    else:
        live = bytes(buf[lo * ts : hi * ts])
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
    # Parent commit: 10.35 calls per task, one dequeue per task.
    assert sum(counter.calls.values()) / tasks <= 7.0
    dequeue = type(pool.workers[0].queue).dequeue.__code__
    assert counter.calls[dequeue] < 0.6 * tasks
