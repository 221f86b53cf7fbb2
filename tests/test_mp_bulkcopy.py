"""Property tests for the mp bulk steal data plane.

The thief's task copy is a contiguous ``read_block`` byte slice (two
slices when the block wraps the ring end) decoded by
:class:`~repro.threads.protocol.RecordCodec`.  The core property: for
*any* head/tail/nstolen, the bulk-copied records equal the claimed
records read one word at a time.  Alongside it: codec round-trips, the
seqlock read path, and the adaptive backoff curve.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mp.atomics import ShmWords, _preferred_context
from repro.mp.queue import _MpTaskBuffer
from repro.threads.protocol import Backoff, RecordCodec

#: Ring capacity (records) and widest record used by the wrap property.
CAP = 32
MAX_WPT = 3

_WORD64 = st.integers(0, (1 << 64) - 1)


@pytest.fixture(scope="module")
def words():
    w = ShmWords(CAP * MAX_WPT)
    yield w
    w.close()
    w.unlink()


def _buffer(words: ShmWords, wpt: int) -> _MpTaskBuffer:
    """A task-buffer view over the module segment, bound by hand."""
    buf = _MpTaskBuffer()
    buf._buf = words.slice(0, CAP * wpt)
    buf.capacity = CAP
    buf.words_per_task = wpt
    buf._codec = RecordCodec(wpt)
    return buf


@given(
    wpt=st.integers(1, MAX_WPT),
    start=st.integers(0, 10 * CAP),
    count=st.integers(1, CAP),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_wrap_around_bulk_copy(words, wpt, start, count, data):
    """Bulk-copied block == concatenation of the claimed records, for
    random head positions and steal volumes, wrapping included."""
    values = data.draw(
        st.lists(_WORD64, min_size=CAP * wpt, max_size=CAP * wpt)
    )
    buf = _buffer(words, wpt)
    buf._buf.write_block(0, RecordCodec(1).encode(values))

    def record(i):
        base = (i % CAP) * wpt
        ws = values[base : base + wpt]
        return ws[0] if wpt == 1 else tuple(ws)

    expected = [record(start + k) for k in range(count)]
    assert buf._read_tasks(start, count) == expected


def test_oversized_block_rejected(words):
    buf = _buffer(words, 1)
    with pytest.raises(IndexError):
        buf._read_tasks(0, CAP + 1)


@given(wpt=st.integers(1, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_codec_round_trip(wpt, data):
    record = _WORD64 if wpt == 1 else st.tuples(*([_WORD64] * wpt))
    tasks = data.draw(st.lists(record, max_size=20))
    codec = RecordCodec(wpt)
    blob = codec.encode(tasks)
    assert len(blob) == len(tasks) * codec.record_bytes
    assert codec.decode(blob) == list(tasks)


# ----------------------------------------------------------------------
# seqlock reads
# ----------------------------------------------------------------------

@given(values=st.lists(_WORD64, min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_load_seq_agrees_with_locked_load(words, values):
    for v in values:
        words.store(2, v)
        assert words.load_seq(2) == words.load(2) == v
    old = words.fetch_add(2, 7)
    assert words.load_seq(2) == (old + 7) & ((1 << 64) - 1)
    words.swap(2, 11)
    words.compare_swap(2, 11, 13)
    assert words.load_seq(2) == words.load(2) == 13


def _seq_writer(w: ShmWords, n: int) -> None:
    for _ in range(n):
        w.fetch_add(1, 1)
    w.store(0, 1)  # done flag


@pytest.mark.timeout(60)
def test_load_seq_under_concurrent_writer():
    """Seqlock reads racing a real-process writer only ever observe
    values the writer actually published."""
    ctx = _preferred_context()
    w = ShmWords(4, ctx=ctx)
    try:
        n = 2000
        p = ctx.Process(target=_seq_writer, args=(w, n), daemon=True)
        p.start()
        seen = set()
        while not w.load_seq(0):
            seen.add(w.load_seq(1))
        p.join(timeout=30)
        assert w.load_seq(1) == n
        assert all(0 <= v <= n for v in seen)
    finally:
        w.close()
        w.unlink()


# ----------------------------------------------------------------------
# adaptive backoff
# ----------------------------------------------------------------------

def test_backoff_progression_and_reset():
    b = Backoff(spins=2, yields=2, sleep_s=1e-6, max_sleep_s=4e-6)
    for _ in range(20):
        b.wait()
    assert b._n == 20
    b.reset()
    assert b._n == 0


def test_backoff_sleep_is_capped(monkeypatch):
    import repro.threads.protocol as protocol

    slept = []
    monkeypatch.setattr(protocol.time, "sleep", slept.append)
    b = Backoff(spins=1, yields=1, sleep_s=1e-6, max_sleep_s=8e-6)
    for _ in range(30):
        b.wait()
    # spin phase sleeps nothing; yield phase sleeps 0; then the
    # exponential ramp 1e-6, 2e-6, 4e-6 saturates at the cap.
    assert slept[0] == 0
    ramp = [s for s in slept if s > 0]
    assert ramp[:3] == [1e-6, 2e-6, 4e-6]
    assert max(ramp) == 8e-6
    assert ramp[-1] == 8e-6
