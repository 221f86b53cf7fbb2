"""A damped probe reads its raw stealval through the codec's shift-and-mask
``has_work``; the view decode (``DampingTracker.view_has_work`` over
``codec.unpack``) is the reference it must equal, word for word.

One row per protocol whose fabric cell lists ``damping``, read from the
capability table, so a new stealval protocol is checked without an edit
here.  The layouts place the same fields at different shifts (Figure 3's
valid bit and 20-bit tail against Figure 4's epoch and 19-bit tail): a
word decoded with the other layout's constants is caught by the edge
words below, which the last test proves.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.capabilities import CELLS
from repro.core.config import QueueConfig
from repro.core.damping import DampingTracker
from repro.core.steal_half import max_steals
from repro.runtime.protocols import get_protocol
from repro.shmem.api import ShmemCtx

DAMPED = [p for p, row in CELLS.items() if "damping" in row.get("fabric", ())]


def codec_of(protocol: str):
    system = get_protocol(protocol).queue_system(ShmemCtx(2), QueueConfig())
    return system.queue_class.codec


CODECS = {p: codec_of(p) for p in DAMPED}


def state_field(codec):
    """``(shift, live values, locked values)`` of the word's state field."""
    if hasattr(codec, "EPOCH_SHIFT"):
        return codec.EPOCH_SHIFT, range(codec.MAX_EPOCHS), [codec.EPOCH_LOCKED]
    return codec.VALID_SHIFT, [1], [0]


def word(codec, state: int, asteals: int, itasks: int, tail: int) -> int:
    shift, _live, _locked = state_field(codec)
    return ((asteals << codec.ASTEAL_SHIFT) | (state << shift)
            | (itasks << codec.ITASK_SHIFT) | (tail << codec.TAIL_SHIFT))


def edge_words(codec):
    """Locked / invalid words, ``itasks`` 0, ``asteals`` just below, at and
    past the schedule length and at its field maximum, and ``tail`` /
    ``itasks`` at 2^19 - 1 and at their field maxima."""
    _shift, live, locked = state_field(codec)
    tails = {0, 1, (1 << 19) - 1, codec.MAX_TAIL}
    for itasks in (0, 1, 2, 3, 150, (1 << 19) - 1 - 32, codec.MAX_ITASKS):
        ms = max_steals(itasks)
        asteals = {0, 1, ms - 1, ms, ms + 1, ms + 7, codec.MAX_ASTEALS}
        for a in sorted(a for a in asteals if 0 <= a <= codec.MAX_ASTEALS):
            for state in (*live, *locked):
                for tail in tails:
                    yield word(codec, state, a, itasks, tail)


def reference(codec, w: int) -> bool:
    return DampingTracker.view_has_work(codec.unpack(w))


@pytest.mark.parametrize("protocol", DAMPED)
def test_edge_words(protocol):
    codec = CODECS[protocol]
    seen = set()
    for w in edge_words(codec):
        got = codec.has_work(w)
        assert got == reference(codec, w), hex(w)
        view = codec.unpack(w)
        assert got == (not view.locked and view.asteals < max_steals(view.itasks))
        seen.add(got)
    assert seen == {True, False}


@pytest.mark.parametrize("protocol", DAMPED)
@given(st.integers(0, (1 << 64) - 1))
@settings(max_examples=500, deadline=None)
def test_random_words(protocol, w):
    codec = CODECS[protocol]
    assert codec.has_work(w) == reference(codec, w)


@pytest.mark.parametrize("protocol", DAMPED)
@given(asteals=st.integers(0, 64), itasks=st.integers(0, 300),
       tail=st.integers(0, (1 << 19) - 1), state=st.integers(0, 3))
@settings(max_examples=500, deadline=None)
def test_random_fields(protocol, asteals, itasks, tail, state):
    """Small counters, where both answers occur."""
    codec = CODECS[protocol]
    _shift, live, locked = state_field(codec)
    states = [*live, *locked]
    w = word(codec, states[state % len(states)], asteals, itasks, tail)
    assert codec.has_work(w) == reference(codec, w)


def test_layouts_disagree_on_the_edge_words():
    """The check would catch one layout decoded with another's
    constants: every pair of damped codecs disagrees on some edge word."""
    codecs = set(CODECS.values())
    for mine in codecs:
        for other in codecs - {mine}:
            assert any(mine.has_work(w) != other.has_work(w)
                       for w in edge_words(mine))
