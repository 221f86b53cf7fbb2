"""The fabric serving path: an arrival is one event, one record, one tick
slot and one completion.

Host-independent checks on :class:`~repro.runtime.serving.ServingController`
and the worker's owner path (docs/performance.md, "The serving path:
before/after"):

* a budget in *counts*: ``Delay`` objects built by a worker against the
  distinct pause lengths it yields, and Python calls per arrival;
* the ``_manage`` gate — wherever the loop skips ``_manage()``, running
  it anyway yields nothing and changes no queue, stats or trace state;
* a differential against the controller it replaced (one closure per
  arrival, a ``Task``-serialized record, a dict of enqueue ticks) on a
  trace with repeated ticks under a tie-breaking scheduler;
* the packed record is ``Task.serialize`` byte for byte, an arrival
  completes once, and an at-least-once protocol is refused before any
  pool exists.
"""

from __future__ import annotations

import json
import struct
import sys
from collections import defaultdict
from types import SimpleNamespace

import pytest

from repro.core.config import QueueConfig
from repro.fabric.engine import Delay
from repro.fabric.errors import ProtocolError
from repro.runtime.arrivals import FixedRateArrivals, mix64, serving_checksum
from repro.runtime.pool import TaskPool
from repro.runtime.protocols import get_protocol
from repro.runtime.serving import (
    ServingController,
    build_serving_registry,
    run_serve,
)
from repro.runtime.stats import QuantileSketch, ServingStats
from repro.runtime.task import Task
from repro.runtime.worker import WorkerConfig

from .test_thief_path import CallCounter, bpc_pool

pytestmark = [pytest.mark.serving, pytest.mark.timeout(120)]

#: ``serve_open``'s shape at a third of its horizon: 8 PEs, 0.8x capacity.
SERVE = dict(arrival="poisson:3200000", duration_s=1e-3, seed=7, slo_s=50e-6)


def serve_with(hook, npes=8, controller=ServingController, **kwargs):
    """``run_serve`` with ``hook(pool)`` called before the run; returns
    the stats and the controller."""
    made = []

    def factory(*args, **kw):
        made.append(controller(*args, **kw))
        hook(made[0].pool)
        return made[0]

    stats = run_serve(npes, controller_factory=factory, **kwargs)
    return stats, made[0]


# ----------------------------------------------------------------------
# (i) the budget, in counts
# ----------------------------------------------------------------------
@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_a_worker_builds_one_delay_per_pause_length(impl, monkeypatch):
    """Parent of the change: one ``Delay`` per batch, 3,023 (sws) and
    2,912 (sdc) for 3 distinct batch lengths.  The queues' own lock
    backoff (SDC, under contention) is not the worker's and is not
    counted."""
    built = defaultdict(list)
    init = Delay.__init__

    def counting(self, duration):
        caller = sys._getframe(1)
        if caller.f_code.co_filename.endswith("worker.py"):
            built[id(caller.f_locals.get("self"))].append(duration)
        init(self, duration)

    monkeypatch.setattr(Delay, "__init__", counting)
    stats = run_serve(8, impl=impl, oracle=False, **SERVE)
    assert stats.serving.completed == stats.serving.emitted > 3000
    assert stats.total_tasks == stats.serving.emitted
    for durations in built.values():
        assert len(durations) == len(set(durations))
    # Batch lengths k * (service + overhead), plus the backoff doublings.
    assert 0 < sum(len(d) for d in built.values()) <= 8 * 16


@pytest.mark.parametrize(
    "impl, calls_per_arrival", [("sws", 47.0), ("sdc", 38.0)]
)
def test_calls_per_arrival_budget(impl, calls_per_arrival):
    """Parent of the change that set these: 51.7 (sws) and 42.5 (sdc)
    Python calls under ``src/repro/`` per arrival inside ``pool.run()``;
    at the change, 45.1 and 36.0."""
    counter = CallCounter()

    def counted(pool):
        pool.run = lambda run=pool.run: counter.run(SimpleNamespace(run=run))

    stats, _ = serve_with(counted, impl=impl, oracle=False, **SERVE)
    arrivals = stats.serving.emitted
    assert stats.serving.completed == arrivals > 3000
    assert sum(counter.calls.values()) / arrivals <= calls_per_arrival


# ----------------------------------------------------------------------
# (ii) the ``_manage`` gate: skipped only where it would do nothing
# ----------------------------------------------------------------------
def _value(v):
    if isinstance(v, (list, dict)):
        return type(v)(v)
    return v


def _state(worker):
    queue = worker.queue
    return (
        {k: _value(v) for k, v in vars(queue).items()},
        list(queue._meta),
        queue.local_count,
        queue.stealable,
        {k: _value(v) for k, v in vars(worker.stats).items()},
        worker._batches,
        list(worker.samples),
        list(worker.spans),
    )


def _audit(worker, tally):
    """After every batch the loop skipped ``_manage``, run it anyway.

    The loop's next step after a batch is the top of the next iteration,
    whose first call is the detector's ``needs_service``: a batch that
    ended without entering ``_manage`` is audited there, on the state
    the gate saw.
    """
    manage = worker._manage
    execute_batch = worker._execute_batch
    needs_service = worker.term.needs_service
    after_batch = [False]

    def batch():
        yield from execute_batch()
        after_batch[0] = True

    def entered():
        after_batch[0] = False
        tally["entered"] += 1
        return (yield from manage())

    def gate(idle):
        if after_batch[0]:
            after_batch[0] = False
            before = _state(worker)
            with pytest.raises(StopIteration):
                next(manage())  # a yield here is work the gate skipped
            assert _state(worker) == before
            tally["skipped"] += 1
        return needs_service(idle)

    worker._execute_batch = batch
    worker._manage = entered
    worker.term.needs_service = gate


CONFIGS = {
    "work_first": ({}, {}),
    "help_first": ({"worker_config": WorkerConfig(spawn_policy="help_first")}, {}),
    "lifelines": ({}, {"lifelines": True}),
    "traced": ({}, {}),  # the test adds ``steal_trace``, a path of its own
}


def _check_tally(config, tally, workers):
    batches = sum(w._batches for w in workers)
    assert batches > 0
    assert sum(w.stats.releases for w in workers) > 0
    if config in ("help_first", "lifelines"):
        assert (tally["entered"], tally["skipped"]) == (batches, 0)
    else:
        assert tally["entered"] + tally["skipped"] == batches
        assert tally["entered"] > 0 and tally["skipped"] > tally["entered"]
    if config == "traced":
        assert all(len(w.samples) == w._batches for w in workers)
        assert all(w.spans for w in workers)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_manage_is_a_no_op_wherever_the_loop_skips_it(impl, config, tmp_path):
    worker_kwargs, pool_kwargs = CONFIGS[config]
    if config == "traced":
        pool_kwargs = {"steal_trace": tmp_path / "t.json"}
    tally = defaultdict(int)

    def audited(pool):
        for w in pool.workers:
            _audit(w, tally)

    # At 0.95x capacity queues build up behind the shared portion, where
    # help-first's merging release acts on a batch the plain gate skips.
    stats, controller = serve_with(
        audited, impl=impl, **worker_kwargs, **pool_kwargs,
        **dict(SERVE, arrival="poisson:3800000"),
    )
    assert stats.serving.completed == stats.serving.emitted
    _check_tally(config, tally, controller.pool.workers)

    # A spawning workload: help-first breaks batches on children.
    tally = defaultdict(int)
    pool = bpc_pool(impl, 8, consumer_time=50e-6, **worker_kwargs, **pool_kwargs)
    for w in pool.workers:
        _audit(w, tally)
    stats = pool.run()
    assert stats.total_tasks == 36
    _check_tally(config, tally, pool.workers)


# ----------------------------------------------------------------------
# (iii) the differential: one closure per arrival, as before the change
# ----------------------------------------------------------------------
class ClosurePerSeq(ServingController):
    """The controller this one replaced: a closure binds each arrival's
    seq at ``attach``; records go through ``Task.serialize``; enqueue
    ticks live in a dict keyed by seq; the books are its own fields."""

    def attach(self) -> None:
        trace = self.process.trace()
        self.slo_ticks = self.stats.slo_ticks
        self.sketch = QuantileSketch()
        self.injected = self.shed = self.completed = 0
        self.slo_attained = self.checksum = 0
        self.ticks: dict[int, int] = {}
        self.fire_order: list[int] = []
        self.done: set[int] = set()
        for seq, tick in enumerate(trace):
            self.engine.at_ticks(tick, self._make_arrival(seq), actor="arrivals")
        self.pool.term_system.arrival_source = self

    def _make_arrival(self, seq):
        def fire() -> None:
            self._fired += 1
            self.fire_order.append(seq)
            self._inject(seq)
        return fire

    def _inject(self, seq: int) -> None:
        target = self._pick_target()
        if target is None:
            self.shed += 1
            self.metrics.record_serving("shed")
            return
        worker = self.pool.workers[target]
        record = Task(self.fn_id, struct.pack("<I", seq)).serialize(self.task_size)
        worker.queue.enqueue(record)
        worker.stats.tasks_spawned += 1
        if self.pool.oracle is not None:
            self.pool.oracle.touched(target)
        self.injected += 1
        self.ticks[seq] = self.engine.now_ticks
        self.metrics.record_serving("injected")

    def complete(self, payload: bytes) -> None:
        (seq,) = struct.unpack_from("<I", payload)
        latency = self.engine.now_ticks - self.ticks.pop(seq)
        self.sketch.add(latency)
        self.completed += 1
        if self.slo_ticks and latency <= self.slo_ticks:
            self.slo_attained += 1
        self.checksum ^= mix64(seq)
        self.done.add(seq)

    def serving_stats(self) -> ServingStats:
        return ServingStats(
            emitted=self.process.emitted,
            injected=self.injected,
            shed=self.shed,
            completed=self.completed,
            slo_ticks=self.slo_ticks,
            slo_attained=self.slo_attained,
            checksum=self.checksum,
            latency=self.sketch,
        )


def tied_trace(groups=60, spacing=400_000_000):
    """Arrival ticks with runs of 1-4 arrivals sharing one tick."""
    process = FixedRateArrivals(1, spacing * groups / 1e15)
    process._trace = tuple(
        g * spacing for g in range(groups) for _ in range(1 + g % 4)
    )
    return process


def _one(controller, impl, seed, npes, shed_threshold):
    return serve_with(
        lambda pool: None, npes, controller, impl=impl, arrival=tied_trace(),
        seed=seed, slo_s=2e-6, shed_threshold=shed_threshold,
        scheduler="random",
    )


@pytest.mark.parametrize("npes, shed_threshold", [(4, None), (2, 3)])
@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_labels_follow_fire_order_and_move_no_statistic(impl, npes, shed_threshold):
    """Every statistic equals the reference's.  The one label-valued
    figure, the checksum over completed seqs, equals it renamed by fire
    order: with nothing shed that is the same set, and with shedding it
    names the same arrivals of each tied group."""
    reordered = 0
    for seed in range(3):
        new, ours = _one(ServingController, impl, seed, npes, shed_threshold)
        old, ref = _one(ClosurePerSeq, impl, seed, npes, shed_threshold)
        books = ours.serving_stats()
        assert ours.books() == ref.books()
        assert books.latency.to_dict() == ref.sketch.to_dict()
        renamed = [k for k, seq in enumerate(ref.fire_order) if seq in ref.done]
        assert books.checksum == serving_checksum(renamed)
        expected = json.loads(old.to_json())
        expected["serving"]["checksum"] = books.checksum
        assert json.loads(new.to_json()) == expected
        if shed_threshold is None:
            assert books.checksum == ref.checksum == serving_checksum(
                range(new.serving.emitted)
            )
        else:
            assert new.serving.shed > 0
        reordered += ref.fire_order != sorted(ref.fire_order)
    # The policy did permute tied arrivals, so labels really differed.
    assert reordered > 0


# ----------------------------------------------------------------------
# (iv) the record, the once-only completion, the up-front refusal
# ----------------------------------------------------------------------
def _controller(task_size):
    registry, cell = build_serving_registry(2e-6)
    pool = TaskPool(2, registry, queue_config=QueueConfig(task_size=task_size))
    process = FixedRateArrivals(1, 1e-9)
    process._trace = (0, 1, 2)
    controller = ServingController(pool, process, fn_id=registry.id_of("serve"))
    cell[0] = controller
    return controller


@pytest.mark.parametrize("task_size", [8, 24, 48])
def test_packed_record_is_task_serialize(task_size):
    """The injector pushes a task; the record a thief or a donor would
    see of it is the serialized task."""
    controller = _controller(task_size)
    fn_id = controller.fn_id
    controller.attach()
    controller._inject(2)
    queue = controller.pool.workers[0].queue
    assert queue.dequeue() == Task(fn_id, struct.pack("<I", 2)).serialize(task_size)


def test_a_record_too_small_for_the_seq_is_refused():
    with pytest.raises(ProtocolError, match="task needs 8 bytes; record size is 7"):
        _controller(7)


class CompletesTwice(ServingController):
    """Deliberately buggy: reports arrival 5's completion twice."""

    def complete(self, payload: bytes) -> None:
        super().complete(payload)
        if struct.unpack_from("<I", payload)[0] == 5:
            super().complete(payload)


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_a_second_completion_of_one_arrival_is_refused(impl):
    with pytest.raises(ProtocolError, match=r"arrival 5 completed twice"):
        run_serve(3, impl=impl, arrival="poisson:2000000", duration_s=2e-5,
                  seed=7, controller_factory=CompletesTwice)


def test_at_least_once_is_refused_before_a_pool_exists(monkeypatch):
    semantics = get_protocol("ff-mult").semantics
    expected = (
        f"serving needs an exactly-once protocol: 'ff-mult' is "
        f"{semantics.name} ({semantics.description})"
    )

    def no_pool(self, *args, **kwargs):
        raise AssertionError("a pool was built")

    monkeypatch.setattr(TaskPool, "__init__", no_pool)
    with pytest.raises(ValueError) as exc:
        run_serve(4, impl="ff-mult", arrival="poisson:400000", seed=16)
    assert str(exc.value) == expected


def test_an_unknown_impl_gets_the_pools_error():
    with pytest.raises(ValueError, match="impl must be a registered protocol"):
        run_serve(2, impl="no-such-protocol")
