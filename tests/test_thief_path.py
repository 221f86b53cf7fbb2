"""The idle PE's search loop: the detector gate is the service, and a
failed steal costs what its messages cost.

Three host-independent checks on the worker loop's thief path
(docs/performance.md, "The thief path"):

* the polling predicate ``needs_service`` may be conservative but is
  never wrong — wherever it says "nothing", ``service()`` would have
  returned ``False`` without yielding or touching any state;
* a budget in *counts* (Python calls per engine event, detector
  entries, ``Delay`` objects built), so a regression shows on any host;
* the timeout-retry wrapper is composed in only when ops can time out.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.fabric.engine import Delay
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskRegistry
from repro.runtime.worker import Worker
from repro.shmem.api import Pe
from repro.workloads.bpc import BpcParams, BpcWorkload

SRC = str(Path(repro.__file__).parent)
TERMINATION = str(Path(SRC) / "runtime" / "termination.py")
PUTS = {Pe.put_words.__code__, Pe.put_word.__code__, Pe.put_word_nb.__code__}


def bpc_pool(impl, npes, seed=7, consumer_time=0.5e-3, **kwargs):
    registry = TaskRegistry()
    workload = BpcWorkload(
        registry,
        BpcParams(n_consumers=8, depth=4, consumer_time=consumer_time,
                  producer_time=consumer_time / 5),
    )
    pool = TaskPool(npes, registry, impl=impl, seed=seed, **kwargs)
    pool.seed(0, [workload.seed_task()])
    return pool


# ----------------------------------------------------------------------
# (i) the gate is the service
# ----------------------------------------------------------------------
def _snapshot(det):
    # Lists (the ``term`` / ``tree`` row views, ``children``) by value.
    return {k: list(v) if isinstance(v, list) else v for k, v in vars(det).items()}


def _audit(worker, skipped):
    """Wherever the predicate says "nothing", run ``service()`` anyway."""
    det = worker.term
    predicate = det.needs_service

    def audited(idle):
        if predicate(idle):
            return True
        before = _snapshot(det)
        gen = det.service(
            worker.stats.tasks_spawned + worker.queue.dup_handouts,
            worker.stats.tasks_executed,
            idle,
        )
        with pytest.raises(StopIteration) as stop:
            next(gen)  # anything yielded is a put the gate would have lost
        assert stop.value.value is False
        assert _snapshot(det) == before
        skipped[0] += 1
        return False

    det.needs_service = audited


@pytest.mark.parametrize("termination", ["ring", "tree"])
@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_service_is_a_no_op_wherever_the_gate_says_nothing(termination, impl):
    for npes in (4, 8):
        for seed in range(5):
            pool = bpc_pool(impl, npes, seed, consumer_time=50e-6,
                            termination=termination)
            skipped = [0]
            for w in pool.workers:
                _audit(w, skipped)
            stats = pool.run()
            assert stats.total_tasks == 36
            assert skipped[0] > 20  # the gate did skip, and was audited


@pytest.mark.parametrize("termination", ["ring", "tree"])
def test_control_a_gate_that_never_opens_never_terminates(termination):
    """The audit above would be vacuous if nothing needed the predicate."""
    honest = bpc_pool("sws", 4, consumer_time=50e-6, termination=termination)
    runtime = honest.run().runtime
    pool = bpc_pool("sws", 4, consumer_time=50e-6, termination=termination)
    for w in pool.workers:
        w.term.needs_service = lambda idle: False
    pool.start_workers()
    pool.ctx.run(until=10 * runtime)
    assert pool.ctx.engine.live == 4
    assert sum(w.stats.tasks_executed for w in pool.workers) == 36


# ----------------------------------------------------------------------
# (ii) the budget, in counts
# ----------------------------------------------------------------------
class CallCounter:
    """``sys.setprofile`` hook: Python calls (and generator resumes) in
    files under ``src/repro/``, by code object."""

    def __init__(self):
        self.calls = Counter()
        self.detector_puts = 0

    def __call__(self, frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if not code.co_filename.startswith(SRC):
            return
        self.calls[code] += 1
        if code in PUTS and frame.f_back.f_code.co_filename == TERMINATION:
            self.detector_puts += 1

    def run(self, pool):
        previous = sys.getprofile()
        sys.setprofile(self)
        try:
            return pool.run()
        finally:
            sys.setprofile(previous)


@pytest.mark.parametrize(
    "impl, calls_per_event", [("sws", 12.0), ("sdc", 8.5)]
)
def test_failed_steal_budget(impl, calls_per_event):
    """Parent of the change that set these: 16.7 (sws) and 11.8 (sdc)
    calls per event, ``service()`` entered once per loop iteration, and
    one ``Delay`` built per failed attempt (485 / 466)."""
    pool = bpc_pool(impl, 8)
    entries = [0]
    for w in pool.workers:
        def counted(*args, _service=w.term.service, **kwargs):
            entries[0] += 1
            return _service(*args, **kwargs)
        w.term.service = counted
    counter = CallCounter()
    stats = counter.run(pool)
    assert stats.total_tasks == 36
    assert stats.total_failed_steals > 400
    events = pool.ctx.engine.events_processed
    assert sum(counter.calls.values()) / events <= calls_per_event
    assert counter.detector_puts > 0
    assert entries[0] <= 2 * counter.detector_puts + 2 * pool.npes
    # At most 7 backoff lengths per worker; the rest are compute segments.
    assert counter.calls[Delay.__init__.__code__] <= 100


# ----------------------------------------------------------------------
# (iii) the retry wrapper exists only where ops can time out
# ----------------------------------------------------------------------
def test_retry_wrapper_only_when_ops_can_time_out():
    wrapper = Worker._attempt_steal.__code__
    reliable = CallCounter()
    reliable.run(bpc_pool("sws", 4, consumer_time=50e-6))
    assert reliable.calls[wrapper] == 0
    timed = CallCounter()
    stats = timed.run(bpc_pool("sws", 4, consumer_time=50e-6, op_timeout=1e-3))
    assert timed.calls[wrapper] >= stats.total_steals + stats.total_failed_steals
    assert stats.total_steal_timeouts == 0
