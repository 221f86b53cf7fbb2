"""Tests for the discrete-event engine."""

import pytest

from repro.fabric.engine import Call, Delay, Engine
from repro.fabric.errors import DeadlockError, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_delay_advances_clock():
    eng = Engine()
    seen = []

    def proc():
        yield Delay(1.5)
        seen.append(eng.now)
        yield Delay(0.5)
        seen.append(eng.now)

    eng.spawn(proc())
    eng.run()
    assert seen == [1.5, 2.0]


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1.0)


def test_zero_delay_allowed():
    eng = Engine()
    done = []

    def proc():
        yield Delay(0.0)
        done.append(True)

    eng.spawn(proc())
    eng.run()
    assert done == [True]


def test_events_pop_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(3.0, lambda: order.append("c"))
    eng.schedule(1.0, lambda: order.append("a"))
    eng.schedule(2.0, lambda: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_equal_timestamps_pop_in_insertion_order():
    eng = Engine()
    order = []
    for name in "abcde":
        eng.schedule(1.0, lambda n=name: order.append(n))
    eng.run()
    assert order == list("abcde")


def test_schedule_into_past_rejected():
    eng = Engine()
    eng.schedule(5.0, lambda: None)
    eng.run()
    assert eng.now == 5.0
    with pytest.raises(SimulationError):
        eng.at(1.0, lambda: None)


def test_run_until_stops_early():
    eng = Engine()
    fired = []
    eng.schedule(1.0, lambda: fired.append(1))
    eng.schedule(10.0, lambda: fired.append(2))
    t = eng.run(until=5.0)
    assert t == 5.0
    assert fired == [1]
    # Remaining event still runs afterwards.
    eng.run()
    assert fired == [1, 2]


@pytest.mark.parametrize("resume", ["bare", "until", "instrumented"])
def test_insert_after_run_until_runs_in_time_order(resume):
    # run(until=) parks the queue cursor on the bucket of the first event
    # past the bound; an event inserted below that bucket afterwards must
    # still run first, whichever loop resumes the run.
    eng = Engine()
    seen = []

    def mark(name):
        seen.append((name, eng.now))

    eng.at(1e-6, lambda: mark("a"))
    eng.at(100e-6, lambda: mark("far"))
    assert eng.run(until=50e-6) == 50e-6
    eng.at(60e-6, lambda: mark("mid"))
    if resume == "instrumented":
        eng.observers.append(lambda: None)
    eng.run(until=1.0 if resume == "until" else None)
    assert [name for name, _ in seen] == ["a", "mid", "far"]
    times = [t for _, t in seen]
    assert times == sorted(times)
    assert eng.instrumented_events == (2 if resume == "instrumented" else 0)


def test_processes_spawned_before_run_start_at_zero():
    eng = Engine()
    starts = []

    def proc(name):
        starts.append((name, eng.now))
        yield Delay(1.0)

    eng.spawn(proc("a"), "a")
    eng.spawn(proc("b"), "b")
    eng.run()
    assert starts == [("a", 0.0), ("b", 0.0)]


def test_process_return_value_captured():
    eng = Engine()

    def proc():
        yield Delay(1.0)
        return 42

    p = eng.spawn(proc())
    eng.run()
    assert p.finished
    assert p.result == 42


def test_deadlock_detected():
    eng = Engine()

    def waiter():
        # Yield a Call whose handler never resumes the process.
        yield Call(lambda engine, proc: None)

    eng.spawn(waiter(), "stuck")
    with pytest.raises(DeadlockError, match="stuck"):
        eng.run()


def test_call_handler_can_resume_with_value():
    eng = Engine()
    got = []

    def handler(engine, proc):
        engine.resume(proc, "hello", delay=2.0)

    def proc():
        v = yield Call(handler)
        got.append((v, eng.now))

    eng.spawn(proc())
    eng.run()
    assert got == [("hello", 2.0)]


def test_unsupported_yield_raises():
    eng = Engine()

    def proc():
        yield "not a request"

    eng.spawn(proc())
    with pytest.raises(SimulationError, match="unsupported request"):
        eng.run()


def test_throw_into_process():
    eng = Engine()
    caught = []

    def proc():
        try:
            yield Delay(100.0)
        except RuntimeError as e:
            caught.append(str(e))

    p = eng.spawn(proc())
    eng.throw(p, RuntimeError("boom"), delay=1.0)
    eng.run()
    assert caught == ["boom"]


def test_exception_in_process_propagates():
    eng = Engine()

    def proc():
        yield Delay(1.0)
        raise ValueError("task exploded")

    eng.spawn(proc())
    with pytest.raises(ValueError, match="task exploded"):
        eng.run()


def test_resume_finished_process_rejected():
    eng = Engine()

    def proc():
        yield Delay(1.0)

    p = eng.spawn(proc())
    eng.run()
    with pytest.raises(SimulationError):
        eng.resume(p, None)


def test_run_all_convenience():
    eng = Engine()
    out = []

    def proc(n):
        yield Delay(n)
        out.append(n)

    t = eng.run_all([("a", proc(1.0)), ("b", proc(2.0))])
    assert t == 2.0
    assert out == [1.0, 2.0]


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        trace = []

        def proc(name, delays):
            for d in delays:
                yield Delay(d)
                trace.append((name, eng.now))

        eng.spawn(proc("a", [0.5, 0.5, 1.0]), "a")
        eng.spawn(proc("b", [1.0, 0.3]), "b")
        eng.run()
        return trace

    assert build() == build()
