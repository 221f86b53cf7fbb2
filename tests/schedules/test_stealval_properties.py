"""Property tests: stealval pack/unpack round-trips at field boundaries.

Both codecs tile all 64 bits (24+2+19+19 and 24+1+19+20), so pack and
unpack must be exact inverses over the whole word — including the
boundaries the fused fetch-add protocol leans on: maximal tail, maximal
allotment, asteals wraparound off the top of the word, and the locked
epoch sentinel (any epoch encoding >= MAX_EPOCHS disables stealing).
"""

from dataclasses import astuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.stealval import StealValEpoch, StealValV1, max_initial_tasks

pytestmark = pytest.mark.schedules

_U64 = (1 << 64) - 1

# Field strategies biased toward the boundaries where packing bugs live.
def _field(bits):
    top = (1 << bits) - 1
    return st.one_of(
        st.sampled_from([0, 1, top - 1, top]),
        st.integers(min_value=0, max_value=top),
    )


@settings(max_examples=200)
@given(
    asteals=_field(StealValEpoch.ASTEAL_BITS),
    epoch=_field(StealValEpoch.EPOCH_BITS),
    itasks=_field(StealValEpoch.ITASK_BITS),
    tail=_field(StealValEpoch.TAIL_BITS),
)
def test_epoch_pack_unpack_roundtrip(asteals, epoch, itasks, tail):
    word = StealValEpoch.pack(asteals, epoch, itasks, tail)
    assert 0 <= word <= _U64
    view = StealValEpoch.unpack(word)
    assert (view.asteals, view.epoch, view.itasks, view.tail) == (
        asteals, epoch, itasks, tail
    )
    assert view.locked == (epoch == StealValEpoch.EPOCH_LOCKED)


@settings(max_examples=200)
@given(
    asteals=_field(StealValV1.ASTEAL_BITS),
    valid=st.booleans(),
    itasks=_field(StealValV1.ITASK_BITS),
    tail=_field(StealValV1.TAIL_BITS),
)
def test_v1_pack_unpack_roundtrip(asteals, valid, itasks, tail):
    word = StealValV1.pack(asteals, valid, itasks, tail)
    assert 0 <= word <= _U64
    view = StealValV1.unpack(word)
    assert (view.asteals, view.valid, view.itasks, view.tail) == (
        asteals, valid, itasks, tail
    )
    assert view.locked == (not valid)


@settings(max_examples=200)
@given(word=st.integers(min_value=0, max_value=_U64))
@pytest.mark.parametrize("codec", [StealValEpoch, StealValV1])
def test_unpack_pack_is_identity_on_words(codec, word):
    """Every 64-bit word decodes to fields that re-encode to itself."""
    v = codec.unpack(word)
    if codec is StealValEpoch:
        repacked = codec.pack(v.asteals, v.epoch, v.itasks, v.tail)
    else:
        repacked = codec.pack(v.asteals, v.valid, v.itasks, v.tail)
    assert repacked == word


@settings(max_examples=100)
@given(
    epoch=st.integers(0, StealValEpoch.EPOCH_LOCKED),
    itasks=_field(StealValEpoch.ITASK_BITS),
    tail=_field(StealValEpoch.TAIL_BITS),
)
def test_asteals_wraparound_falls_off_the_top(epoch, itasks, tail):
    """A fetch-add at asteals saturation can't corrupt owner fields.

    The counter sits in the high-order bits precisely so that the 2^24
    overflow carries *out of the word* (mod 2^64), never into epoch,
    itasks, or tail.
    """
    word = StealValEpoch.pack(
        StealValEpoch.MAX_ASTEALS, epoch, itasks, tail
    )
    bumped = (word + StealValEpoch.ASTEAL_UNIT) & _U64
    view = StealValEpoch.unpack(bumped)
    assert view.asteals == 0  # wrapped
    assert (view.epoch, view.itasks, view.tail) == (epoch, itasks, tail)


# The edges of the fields' widths: asteals saturated, a 19-bit itasks or
# tail at its top, and a 20-bit tail at its top (Figure 3's; on Figure 4's
# layout the same low 20 bits spill one bit into itasks).
_EDGES = [(1 << 24) - 1, (1 << 19) - 1, (1 << 20) - 1]


def _edge(bits):
    return st.one_of(st.sampled_from(_EDGES + [0, 1]),
                     st.integers(min_value=0, max_value=(1 << bits) - 1))


@settings(max_examples=300)
@given(asteals=_edge(24), flag=st.integers(0, 3), itasks=_edge(19),
       tail=_edge(20), bumps=st.sampled_from([0, 1, 2]),
       word=st.none() | st.integers(min_value=0, max_value=_U64))
@example(asteals=(1 << 24) - 1, flag=0, itasks=(1 << 19) - 1,
         tail=(1 << 19) - 1, bumps=1, word=None)
@example(asteals=(1 << 24) - 1, flag=1, itasks=(1 << 19) - 1,
         tail=(1 << 20) - 1, bumps=2, word=None)
@pytest.mark.parametrize("codec", [StealValEpoch, StealValV1])
def test_fields_is_unpack_at_the_field_edges(codec, asteals, flag, itasks,
                                             tail, bumps, word):
    """``codec.fields`` (the per-event oracle's shift-and-mask decode) is
    ``unpack`` as a plain tuple, on any 64-bit word: fields laid at their
    edges, or a drawn word, then ``bumps`` thieves' fetch-adds — past
    asteals 2^24 - 1 the count falls off the top of the word, kept to 64
    bits as the heap keeps it or left unmasked."""
    flag_shift = codec.ITASK_SHIFT + codec.ITASK_BITS  # epoch / valid bit
    if word is None:
        word = ((asteals << codec.ASTEAL_SHIFT) | (flag << flag_shift)
                | (itasks << codec.ITASK_SHIFT) | tail) & _U64
    bumped = word + bumps * codec.ASTEAL_UNIT
    for w in (word, bumped & _U64, bumped):
        assert codec.fields(w) == astuple(codec.unpack(w))
    if word >> codec.ASTEAL_SHIFT == codec.MAX_ASTEALS and bumps:
        assert codec.fields(bumped & _U64)[0] == bumps - 1  # wrapped


def test_locked_epoch_encodings_disable_stealing():
    """Epoch encodings >= MAX_EPOCHS are the locked sentinel."""
    assert StealValEpoch.EPOCH_LOCKED >= StealValEpoch.MAX_EPOCHS
    locked = StealValEpoch.unpack(StealValEpoch.locked_word())
    assert locked.locked and locked.itasks == 0 and locked.tail == 0
    for epoch in range(StealValEpoch.MAX_EPOCHS):
        live = StealValEpoch.unpack(StealValEpoch.pack(5, epoch, 10, 3))
        assert not live.locked
    assert StealValV1.unpack(StealValV1.invalid_word()).locked


def test_field_range_rejection():
    with pytest.raises(ValueError, match="does not fit"):
        StealValEpoch.pack(1 << StealValEpoch.ASTEAL_BITS, 0, 0, 0)
    with pytest.raises(ValueError, match="does not fit"):
        StealValEpoch.pack(0, 0, StealValEpoch.MAX_ITASKS + 1, 0)
    with pytest.raises(ValueError, match="does not fit"):
        StealValEpoch.pack(0, 0, 0, StealValEpoch.MAX_TAIL + 1)
    with pytest.raises(ValueError, match="does not fit"):
        StealValV1.pack(0, True, 0, StealValV1.MAX_TAIL + 1)


def test_max_initial_tasks_margin():
    """The §4.3 cap leaves room for one in-flight increment per PE."""
    assert max_initial_tasks(8) == (1 << StealValEpoch.ITASK_BITS) - 8
    assert max_initial_tasks(1 << 19) == 1  # degenerate but defined
    with pytest.raises(ValueError):
        max_initial_tasks(0)
