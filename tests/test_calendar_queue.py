"""Property tests: the calendar queue dequeues in exact heapq order.

The engine's replacement of the binary heap is only sound if *any*
schedule / cancel / reschedule sequence dequeues bit-identically to a
``(when, seq)`` heapq — including lazy-cancellation tombstones,
compaction sweeps, and consumed-prefix trimming.  These tests drive a
random operation sequence against both structures and require exact
agreement at every pop.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.engine import CalendarQueue


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
