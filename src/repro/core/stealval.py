"""Packed 64-bit stealval codecs (paper §4, Figures 3 and 4).

The entire SWS idea hinges on representing everything a thief needs to
*discover and claim* work in one 64-bit word that a single remote atomic
fetch-add can both read and update:

* the thief's fetch-add increments the **attempted-steals** counter;
* the fetched (old) value tells the thief the **initial allotment** and
  **tail index**, from which the steal-half schedule determines exactly
  which block of tasks it just claimed — no lock, no second read.

Two layouts are implemented:

``StealValV1`` (Figure 3) — the initial design::

    63........40 39 38........20 19.........0
    asteals (24)  V  itasks (19)  tail (20)

``StealValEpoch`` (Figure 4) — the completion-epoch design::

    63........40 39..38 37........19 18........0
    asteals (24) epoch   itasks (19)  tail (19)

In both, *asteals* occupies the **high-order bits** so that a thief's
``fetch_add(1 << 40)`` can never carry into owner-maintained fields: a
24-bit overflow falls off the top of the word.  The paper additionally
caps the initial allotment at ``2**19 - P`` (see :func:`max_initial_tasks`)
so that in-flight increments cannot make the claim arithmetic ambiguous.

Epoch semantics (§4.2): epoch values ``0 .. max_epochs-1`` are live; the
all-ones epoch value (3) is the **locked** sentinel — "an epoch index of
anything greater than MAX_EPOCHS signifies that the queue is locked".
The Figure-3 layout expresses the same thing through its valid bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .steal_half import max_steals, steal_displacement, steal_volume

_U64 = (1 << 64) - 1


def _check_field(name: str, value: int, bits: int) -> int:
    if not isinstance(value, int):
        raise TypeError(f"{name} must be int, got {type(value).__name__}")
    if not 0 <= value < (1 << bits):
        raise ValueError(f"{name}={value} does not fit in {bits} bits")
    return value


@dataclass(frozen=True)
class StealViewV1:
    """Decoded Figure-3 stealval."""

    asteals: int
    valid: bool
    itasks: int
    tail: int

    @property
    def locked(self) -> bool:
        """Steals disabled (valid bit clear) — mirrors the epoch layout's
        locked sentinel so damping logic works against either view."""
        return not self.valid

    @property
    def epoch(self) -> int:
        """The single completion array is row 0 — lets the thief path
        address completion words the same way for both layouts."""
        return 0


@dataclass(frozen=True)
class StealViewEpoch:
    """Decoded Figure-4 stealval."""

    asteals: int
    epoch: int
    itasks: int
    tail: int

    @property
    def locked(self) -> bool:
        """True when the epoch field carries the locked sentinel."""
        return self.epoch == StealValEpoch.EPOCH_LOCKED


class StealValV1:
    """Codec for the Figure-3 layout: ``asteals:24 | valid:1 | itasks:19 | tail:20``."""

    ASTEAL_BITS = 24
    VALID_BITS = 1
    ITASK_BITS = 19
    TAIL_BITS = 20

    TAIL_SHIFT = 0
    ITASK_SHIFT = TAIL_BITS
    VALID_SHIFT = ITASK_SHIFT + ITASK_BITS
    ASTEAL_SHIFT = VALID_SHIFT + VALID_BITS

    #: Delta a thief adds to claim one steal attempt.
    ASTEAL_UNIT = 1 << ASTEAL_SHIFT

    MAX_ASTEALS = (1 << ASTEAL_BITS) - 1
    MAX_ITASKS = (1 << ITASK_BITS) - 1
    MAX_TAIL = (1 << TAIL_BITS) - 1

    @classmethod
    def pack(cls, asteals: int, valid: bool, itasks: int, tail: int) -> int:
        """Encode fields into a 64-bit word."""
        _check_field("asteals", asteals, cls.ASTEAL_BITS)
        _check_field("itasks", itasks, cls.ITASK_BITS)
        _check_field("tail", tail, cls.TAIL_BITS)
        return (
            (asteals << cls.ASTEAL_SHIFT)
            | (int(bool(valid)) << cls.VALID_SHIFT)
            | (itasks << cls.ITASK_SHIFT)
            | tail
        )

    @classmethod
    def unpack(cls, word: int) -> StealViewV1:
        """Decode a 64-bit word (extra high bits are ignored mod 2^64)."""
        word &= _U64
        return StealViewV1(
            asteals=(word >> cls.ASTEAL_SHIFT) & cls.MAX_ASTEALS,
            valid=bool((word >> cls.VALID_SHIFT) & 1),
            itasks=(word >> cls.ITASK_SHIFT) & cls.MAX_ITASKS,
            tail=word & cls.MAX_TAIL,
        )

    @classmethod
    def has_work(cls, word: int) -> bool:
        """The damped probe's decode: ``view_has_work(unpack(word))``."""
        if not (word >> cls.VALID_SHIFT) & 1:
            return False
        itasks = (word >> cls.ITASK_SHIFT) & cls.MAX_ITASKS
        return (word >> cls.ASTEAL_SHIFT) & cls.MAX_ASTEALS < max_steals(itasks)

    @classmethod
    def invalid_word(cls) -> int:
        """A stealval advertising no stealable work (valid bit clear)."""
        return cls.pack(0, False, 0, 0)


class StealValEpoch:
    """Codec for the Figure-4 layout: ``asteals:24 | epoch:2 | itasks:19 | tail:19``."""

    ASTEAL_BITS = 24
    EPOCH_BITS = 2
    ITASK_BITS = 19
    TAIL_BITS = 19

    TAIL_SHIFT = 0
    ITASK_SHIFT = TAIL_BITS
    EPOCH_SHIFT = ITASK_SHIFT + ITASK_BITS
    ASTEAL_SHIFT = EPOCH_SHIFT + EPOCH_BITS

    ASTEAL_UNIT = 1 << ASTEAL_SHIFT

    MAX_ASTEALS = (1 << ASTEAL_BITS) - 1
    MAX_ITASKS = (1 << ITASK_BITS) - 1
    MAX_TAIL = (1 << TAIL_BITS) - 1

    #: Epoch sentinel meaning "queue locked / steals disabled".
    EPOCH_LOCKED = (1 << EPOCH_BITS) - 1
    #: Number of usable live epochs (paper: two sufficed to avoid polling).
    MAX_EPOCHS = EPOCH_LOCKED  # epochs 0 .. MAX_EPOCHS-1 are live

    @classmethod
    def pack(cls, asteals: int, epoch: int, itasks: int, tail: int) -> int:
        """Encode fields into a 64-bit word."""
        _check_field("asteals", asteals, cls.ASTEAL_BITS)
        _check_field("epoch", epoch, cls.EPOCH_BITS)
        _check_field("itasks", itasks, cls.ITASK_BITS)
        _check_field("tail", tail, cls.TAIL_BITS)
        return (
            (asteals << cls.ASTEAL_SHIFT)
            | (epoch << cls.EPOCH_SHIFT)
            | (itasks << cls.ITASK_SHIFT)
            | tail
        )

    @classmethod
    def unpack(cls, word: int) -> StealViewEpoch:
        """Decode a 64-bit word (extra high bits are ignored mod 2^64)."""
        word &= _U64
        return StealViewEpoch(
            asteals=(word >> cls.ASTEAL_SHIFT) & cls.MAX_ASTEALS,
            epoch=(word >> cls.EPOCH_SHIFT) & cls.EPOCH_LOCKED,
            itasks=(word >> cls.ITASK_SHIFT) & cls.MAX_ITASKS,
            tail=word & cls.MAX_TAIL,
        )

    @classmethod
    def has_work(cls, word: int) -> bool:
        """The damped probe's decode: ``view_has_work(unpack(word))``."""
        if (word >> cls.EPOCH_SHIFT) & cls.EPOCH_LOCKED == cls.EPOCH_LOCKED:
            return False
        itasks = (word >> cls.ITASK_SHIFT) & cls.MAX_ITASKS
        return (word >> cls.ASTEAL_SHIFT) & cls.MAX_ASTEALS < max_steals(itasks)

    @classmethod
    def locked_word(cls) -> int:
        """A stealval with the locked epoch sentinel (steals disabled)."""
        return cls.pack(0, cls.EPOCH_LOCKED, 0, 0)


def max_initial_tasks(npes: int, codec: type = StealValEpoch) -> int:
    """Largest allotment an owner may advertise (paper §4.3: ``2^19 - P``).

    The margin of ``npes`` guarantees that even if every other PE has an
    increment in flight against a freshly exhausted stealval, the asteals
    arithmetic still identifies "no work" unambiguously.
    """
    if npes <= 0:
        raise ValueError(f"npes must be positive, got {npes}")
    return max(1, (1 << codec.ITASK_BITS) - npes)


# What a decoded ``(itasks, asteals)`` pair means to each side: every
# substrate (fabric queues, thread / mp shims, steal damping) reads a
# stealval through these two functions.
@lru_cache(maxsize=1 << 15)
def thief_claim(itasks: int, asteals: int) -> tuple[int, int]:
    """``(volume, displacement)`` of the block a thief's fetch-add claimed.

    ``asteals`` is the counter value the fetch-add *returned*: the thief
    owns ``volume`` tasks starting ``displacement`` entries past the
    advertised tail.  Volume 0 means the allotment was already exhausted.
    """
    return steal_volume(itasks, asteals), steal_displacement(itasks, asteals)


@lru_cache(maxsize=1 << 15)
def owner_remainder(itasks: int, asteals: int) -> tuple[int, int, int]:
    """``(claims, displacement, remaining)`` of an allotment being settled.

    The view of the owner closing a stealval: ``claims`` attempts found work (the counter overshoots the
    schedule once thieves hit an exhausted allotment), they cover the
    first ``displacement`` tasks, and ``remaining`` are still unclaimed.
    """
    claims = min(asteals, max_steals(itasks))
    disp = steal_displacement(itasks, claims)
    return claims, disp, itasks - disp
