"""Property tests: the calendar queue dequeues in exact heapq order.

The engine's replacement of the binary heap is only sound if *any*
schedule / cancel / reschedule sequence dequeues bit-identically to a
``(when, seq)`` heapq — including lazy-cancellation tombstones,
compaction sweeps, and consumed-prefix trimming.  These tests drive a
random operation sequence against both structures and require exact
agreement at every pop.  The engine property lifts the model to the
engine: ``at`` / ``run(until=)`` / ``cancel`` interleavings on all three
run loops (bare, bounded, instrumented) — the late-event bug of a parked
cursor was once found by deleting code, not by a test.  The last one
covers the NIC's pooled round trips, which insert into the queue
without going through the engine.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.engine import TICKS_PER_SECOND, CalendarQueue, Engine
from repro.fabric.scheduler import FixedScheduler


def _nop() -> None:
    pass


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1 << 40)),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 30)),
        st.tuples(st.just("resched"), st.integers(0, 1 << 30)),
        st.tuples(st.just("pop"), st.just(0)),
        st.tuples(st.just("peek"), st.just(0)),
    ),
    max_size=300,
)


class _TinyThresholds(CalendarQueue):
    """Force the rare paths (compaction, prefix trim) to fire constantly."""

    COMPACT_MIN = 2
    TRIM = 4

    def __init__(self):
        super().__init__(shift=6)


def _drive(q, ops):
    """Run ``ops`` against ``q`` and a heapq reference; assert agreement.

    The queue contract requires pushed ticks >= the last dequeued tick
    (simulator time is monotone), so pushes are expressed as deltas from
    the last popped ``when``.
    """
    model: list[tuple[int, int]] = []  # heap of (when, seq)
    live: dict[int, list] = {}         # seq -> queue entry
    seq = 0
    now = 0

    def push(when):
        nonlocal seq
        entry = [when, seq, _nop, None]
        q.push(entry)
        heapq.heappush(model, (when, seq))
        live[seq] = entry
        seq += 1

    def model_peek():
        while model and model[0][1] not in live:
            heapq.heappop(model)  # cancelled in the reference too
        return model[0] if model else None

    def model_pop():
        if model_peek() is None:
            return None
        when, s = heapq.heappop(model)
        del live[s]
        return when, s

    for op, arg in ops:
        if op == "push":
            push(now + arg)
        elif op in ("cancel", "resched"):
            if not live:
                continue
            keys = sorted(live)
            entry = live.pop(keys[arg % len(keys)])
            assert q.cancel(entry) is True
            assert q.cancel(entry) is False  # cancellation is idempotent
            if op == "resched":
                push(now + (arg % 1000))
        elif op == "peek":
            # Parks the cursor on the head's bucket without consuming it
            # (Engine.run(until=) stops this way); a later push below
            # that bucket must still dequeue first.
            got = q.peek()
            assert (None if got is None else (got[0], got[1])) == model_peek()
        else:  # pop
            expected = model_pop()
            got = q.pop()
            if expected is None:
                assert got is None
            else:
                assert got is not None
                assert (got[0], got[1]) == expected
                now = expected[0]
        assert len(q) == len(live)

    # Final drain must replay the reference heap exactly.
    while True:
        expected = model_pop()
        got = q.pop()
        if expected is None:
            assert got is None
            assert len(q) == 0
            return
        assert got is not None
        assert (got[0], got[1]) == expected


@given(ops=_OPS, shift=st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_dequeue_matches_heapq_order(ops, shift):
    _drive(CalendarQueue(shift=shift), ops)


@given(ops=_OPS)
@settings(max_examples=120, deadline=None)
def test_dequeue_matches_heapq_with_constant_compaction(ops):
    _drive(_TinyThresholds(), ops)


def test_cancel_after_pop_is_noop():
    q = CalendarQueue()
    entry = [5, 0, _nop, None]
    q.push(entry)
    assert q.pop() == (5, 0, _nop, None)
    assert q.cancel(entry) is False
    assert len(q) == 0


# ----------------------------------------------------------------------
# The engine over the queue: every run loop against one heapq model
# ----------------------------------------------------------------------
_DELTA = st.one_of(
    st.integers(0, 3), st.integers(0, 1 << 20), st.integers(0, 1 << 40)
)
#: ``bare`` / ``bounded`` are the plain loop without / with ``until=``;
#: ``observed`` and ``fixed`` enter the instrumented loop (an observer,
#: the insertion-order scheduler) with or without ``until=``.
_LOOPS = st.sampled_from(["plain", "observed", "fixed"])
_ENGINE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _DELTA, st.none() | _DELTA),
        st.tuples(st.just("at_s"), _DELTA, st.none() | _DELTA),
        st.tuples(st.just("cancel"), st.integers(0, 1 << 30), st.none()),
        st.tuples(st.just("run"), st.none() | _DELTA, _LOOPS),
    ),
    max_size=80,
)


class _EngineModel:
    """A ``(when, seq)`` heapq replaying what ``Engine.run`` must do."""

    def __init__(self):
        self.heap: list[tuple[int, int, int | None]] = []
        self.live: set[int] = set()
        self.seq = 0
        self.now = 0
        self.log: list[int] = []

    def push(self, when, child):
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.heap, (when, seq, child))
        self.live.add(seq)
        return seq

    def run(self, until_ticks):
        while self.heap:
            when, seq, child = self.heap[0]
            if seq not in self.live:
                heapq.heappop(self.heap)
                continue
            if until_ticks is not None and when > until_ticks:
                self.now = until_ticks
                return
            heapq.heappop(self.heap)
            self.live.discard(seq)
            self.now = when
            self.log.append(seq)
            if child is not None:
                self.push(when + child, None)


@given(ops=_ENGINE_OPS, shift=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_every_run_loop_matches_the_heapq_model(ops, shift):
    """``at`` / ``run(until=)`` / ``cancel`` interleavings, each ``run``
    on the bare, bounded or instrumented loop: the events that run, their
    order, the clock after each run and every ``cancel`` verdict match
    the model.  An event may schedule a child as it fires, so inserts at
    and ahead of the cursor are drawn too."""
    engine = Engine()
    engine._q = CalendarQueue(shift=shift)
    model = _EngineModel()
    log: list[int] = []
    handles: list[tuple[list, int]] = []

    def event(seq, child):
        def fire():
            log.append(seq)
            if child is not None:
                # The model gives the child the same seq when it replays
                # this event; the logs compare them.
                child_seq = engine._seq
                handle = engine.schedule_ticks(child, event(child_seq, None))
                handles.append((handle, child_seq))
        return fire

    for op, a, b in ops:
        if op in ("at", "at_s"):
            when = engine.now_ticks + a
            seq = engine._seq
            if op == "at":
                handle = engine.at_ticks(when, event(seq, b))
            else:
                when_s = when / TICKS_PER_SECOND
                handle = engine.at(when_s, event(seq, b))
                when = max(engine.now_ticks, round(when_s * TICKS_PER_SECOND))
            assert model.push(when, b) == seq == handle[1]
            handles.append((handle, seq))
        elif op == "cancel":
            if not handles:
                continue
            handle, seq = handles[a % len(handles)]
            assert engine.cancel(handle) is (seq in model.live)
            model.live.discard(seq)
            assert engine.cancel(handle) is False
        else:
            engine.observers = [lambda: None] if b == "observed" else []
            engine.scheduler = FixedScheduler() if b == "fixed" else None
            until = None if a is None else (engine.now_ticks + a) / TICKS_PER_SECOND
            engine.run(until=until)
            model.run(None if until is None else round(until * TICKS_PER_SECOND))
            assert log == model.log
            assert engine.now_ticks == model.now
    engine.observers, engine.scheduler = [], None
    engine.run()
    model.run(None)
    assert log == model.log
    assert len(engine._q) == 0


# ----------------------------------------------------------------------
# The pooled NIC legs push into the queue themselves
# ----------------------------------------------------------------------
#: One PE's program: (op, target, operand) steps.  ``delay`` operands are
#: ticks, so drawn waits land in the current bucket and in later ones.
_NIC_STEP = st.tuples(
    st.sampled_from(["fetch_add", "swap", "fetch", "get", "delay"]),
    st.integers(0, 7),
    st.one_of(st.integers(0, 3), st.integers(0, 1 << 34)),
)
_NIC_PROGRAMS = st.lists(st.lists(_NIC_STEP, max_size=10), min_size=1, max_size=6)


@given(programs=_NIC_PROGRAMS, shift=st.integers(0, 40), ppn=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_pooled_nic_legs_keep_heapq_order(programs, shift, ppn):
    """``Nic._post`` and the pooled records' at-target legs insert their
    entries with the queue's current-bucket fast path inlined.  Every entry pushed by
    any site (the NIC legs, the engine's ``Delay`` and ``at_ticks`` paths,
    ``CalendarQueue.push``) is tagged as it goes in; the run must fire
    each exactly once, in strictly increasing ``(when, seq)`` order —
    the order a heapq holding the same pushes would pop them in."""
    from unittest import mock

    from repro.fabric import engine as engine_mod
    from repro.fabric import nic as nic_mod
    from repro.fabric.engine import Delay
    from repro.shmem.api import ShmemCtx

    pushed: list[list] = []
    fired: list[tuple[int, int]] = []

    def tag(entry):
        fn, key = entry[2], (entry[0], entry[1])

        def fire():
            fired.append(key)
            fn()

        entry[2] = fire
        pushed.append(entry)

    class Tagging(CalendarQueue):
        __slots__ = ()

        def _push_slow(self, entry):
            tag(entry)
            CalendarQueue._push_slow(self, entry)

    def tagging_insort(a, entry, lo=0):
        tag(entry)
        real_insort(a, entry, lo)

    real_insort = nic_mod.insort
    npes = len(programs)
    ctx = ShmemCtx(npes, pes_per_node=ppn)
    ctx.heap.alloc_words("m", 4)
    ctx.engine._q = Tagging(shift=shift)
    nic = ctx.nic

    def body(rank, program):
        for op, t, operand in program:
            t %= npes
            if op == "fetch_add":
                yield nic.amo_fetch_add(rank, t, "m", operand % 4, operand)
            elif op == "swap":
                yield nic.amo_swap(rank, t, "m", operand % 4, operand)
            elif op == "fetch":
                yield nic.amo_fetch(rank, t, "m", operand % 4)
            elif op == "get":
                yield nic.get_words(rank, t, "m", 0, 1 + operand % 4)
            else:
                yield Delay(operand / TICKS_PER_SECOND)

    with mock.patch.object(nic_mod, "insort", tagging_insort), \
            mock.patch.object(engine_mod, "insort", tagging_insort):
        assert nic._pooled
        for rank, program in enumerate(programs):
            ctx.engine.spawn(body(rank, program), f"pe{rank}")
        ctx.engine.run()
    assert len(fired) == len(pushed)
    assert all(a < b for a, b in zip(fired, fired[1:]))
    assert len(ctx.engine._q) == 0
