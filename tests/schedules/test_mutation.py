"""Mutation smoke tests: the explorer must catch planted protocol bugs.

Each test re-introduces a bug the paper's structured-atomic design
exists to rule out, then asserts the oracle-armed explorer detects it,
that the recorded schedule trace reproduces the failure bit-identically,
and that greedy shrinking keeps it failing:

* **un-fused claim** — the thief's discover-and-claim split back into a
  separate read and add (the pre-SWS racy window, paper §4; the
  ``explore-race`` row's mutant): thieves that read between each other's
  adds claim the same block, or lose one;
* **spurious completion retry** — a widened notification window where
  the thief's completion fetch-add lands twice: the completion-word
  discipline pins it as a double claim the moment the second add lands.
"""

import pytest

from repro.analysis.explore import (
    explore,
    pool_factory,
    replay_trace,
    run_once,
    shrink_trace,
    unfused_factory,
    unfused_steal,
)
from repro.core.sws_queue import SwsQueue
from repro.fabric.scheduler import make_scheduler

pytestmark = pytest.mark.schedules


def test_explorer_catches_unfused_claim(monkeypatch):
    monkeypatch.setattr(SwsQueue, "steal", unfused_steal)
    report = explore(
        "flat", "sws", policy="random", seeds=range(10), stop_on_failure=True
    )
    assert report.failures, "explorer missed the planted claim race"
    fail = report.failures[0]
    # Thieves racing through the widened window duplicate or misaccount
    # work; whichever oracle trips first, it names a protocol loss.
    assert fail.check in {
        "conservation", "double-claim", "comp-volume", "comp-volume-range"
    }
    assert fail.trace.meta["workload"] == "flat"
    assert fail.trace.meta["impl"] == "sws"
    assert fail.trace.meta["check"] == fail.check

    # Replay is deterministic: same violation at the same event count.
    replayed = replay_trace(fail.trace)
    assert not replayed.ok
    assert replayed.check == fail.check
    assert replayed.events == fail.events

    # Greedy shrink keeps the failure and never grows the trace.
    shrunk, attempts = shrink_trace(fail.trace)
    assert attempts >= 1
    assert len(shrunk.choices) <= len(fail.trace.choices)
    confirm = replay_trace(
        shrunk, factory=pool_factory("flat", "sws")
    )
    assert not confirm.ok
    assert confirm.check == fail.check


def test_explorer_catches_double_notification(monkeypatch):
    original = SwsQueue._notify_completion

    def doubled(self, victim, offset, ntasks):
        yield from original(self, victim, offset, ntasks)
        yield from original(self, victim, offset, ntasks)

    monkeypatch.setattr(SwsQueue, "_notify_completion", doubled)
    report = explore("flat", "sws", policy="fixed", stop_on_failure=True)
    assert report.failures, "oracle missed the doubled completion add"
    fail = report.failures[0]
    assert fail.check == "double-claim"
    assert "jumped" in fail.detail

    replayed = replay_trace(fail.trace)
    assert not replayed.ok
    assert replayed.check == "double-claim"
    assert replayed.events == fail.events


def test_clean_protocol_survives_same_sweep():
    """The exact sweep the mutations fail must pass unmutated."""
    report = explore("flat", "sws", policy="random", seeds=range(10))
    assert report.clean, report.render()


@pytest.mark.timeout(60)
def test_a_lost_task_is_no_termination_not_a_hang():
    """The unfused tree at 3 PEs loses a task, which the conservation
    check (a duplicate check) cannot see: the run is cut at the explorer's
    virtual deadline, and replay and shrink keep the failure."""
    factory = unfused_factory("tree", 3)
    result = run_once(factory, make_scheduler("fixed"))
    assert (result.ok, result.check) == (False, "no-termination")
    replayed = replay_trace(result.trace, factory=factory)
    assert (replayed.check, replayed.events) == ("no-termination",
                                                 result.events)
    shrunk, _ = shrink_trace(result.trace, factory=factory, max_attempts=8)
    again = replay_trace(shrunk, factory=factory)
    assert again.check == "no-termination"


def test_the_mutant_is_bound_per_pool():
    """The row's factory rebinds each queue's steal; the class and a pool
    built beside it keep the fused fetch-add."""
    mutant = unfused_factory("flat", 3)(make_scheduler("fixed"))
    plain = pool_factory("flat", "sws", npes=3)(make_scheduler("fixed"))
    assert all(w.queue.steal.__func__ is unfused_steal
               for w in mutant.workers)
    assert all(w.queue.steal.__func__ is SwsQueue.steal
               for w in plain.workers)
