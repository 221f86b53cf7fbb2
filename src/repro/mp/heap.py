"""Shared symmetric heap of 64-bit words across OS processes.

The multiprocess analogue of the fabric's
:class:`~repro.fabric.memory.SymmetricHeap`: named word regions packed
into one anonymous shared mapping, addressed by the
same ``(region, offset)`` handles the :mod:`repro.shmem` layer uses.
:class:`MpHeap` implements the :class:`repro.shmem.heap.HeapBackend`
seam, so :class:`~repro.shmem.heap.SymmetricAllocator` lays out a
queue's symmetric footprint identically on either substrate.

Two-phase lifecycle: reserve regions (``alloc_words`` — directly or via
an allocator's ``commit``), then :meth:`freeze` to map the backing
words.  Addressing helpers (:meth:`ref`, :meth:`slice`) are only valid
after the freeze.  All access goes through the atomic word seam
(:class:`~repro.mp.atomics.ShmWords`); this module never touches raw
buffer bytes.
"""

from __future__ import annotations

from ..shmem.heap import SymArray, SymWord
from .atomics import DEFAULT_STRIPES, ShmWords, WordRef, WordSlice


class MpHeap:
    """Named word regions in one cross-process shared mapping."""

    def __init__(self, nstripes: int = DEFAULT_STRIPES, ctx=None) -> None:
        self.nstripes = nstripes
        self._ctx = ctx
        self._regions: dict[str, tuple[int, int]] = {}  # name -> (start, nwords)
        self._cursor = 0
        self.words: ShmWords | None = None

    # -- HeapBackend seam ---------------------------------------------
    def alloc_words(self, name: str, nwords: int) -> None:
        """Reserve a named region of ``nwords`` 64-bit words."""
        if self.words is not None:
            raise RuntimeError("heap already frozen")
        if name in self._regions:
            raise ValueError(f"region {name!r} already allocated")
        if nwords <= 0:
            raise ValueError(f"nwords must be positive, got {nwords}")
        self._regions[name] = (self._cursor, nwords)
        self._cursor += nwords

    def alloc_bytes(self, name: str, nbytes: int) -> None:
        """Unsupported: the mp heap is word-only (tasks live in words)."""
        raise NotImplementedError(
            "MpHeap stores 64-bit words only; pack byte payloads into "
            "words (see repro.mp.driver task codecs)"
        )

    # -- lifecycle -----------------------------------------------------
    def freeze(self) -> "MpHeap":
        """Map the backing words; no further regions after this."""
        if self.words is not None:
            raise RuntimeError("heap already frozen")
        if not self._cursor:
            raise RuntimeError("freeze() with no regions reserved")
        self.words = ShmWords(self._cursor, self.nstripes, ctx=self._ctx)
        return self

    def close(self) -> None:
        """Detach this process's mapping."""
        if self.words is not None:
            self.words.close()

    #: Nothing to destroy (see :meth:`ShmWords.unlink`).
    unlink = close

    # -- addressing ----------------------------------------------------
    def _base(self, region: str, offset: int, length: int = 1) -> int:
        if self.words is None:
            raise RuntimeError("heap not frozen yet")
        try:
            start, nwords = self._regions[region]
        except KeyError:
            raise KeyError(f"unknown region {region!r}") from None
        if offset < 0 or offset + length > nwords:
            raise IndexError(
                f"[{offset}, {offset + length}) outside region "
                f"{region!r} of {nwords} words"
            )
        return start + offset

    def index(self, addr: SymWord) -> int:
        """Global word index of a symmetric word handle."""
        return self._base(addr.region, addr.offset)

    def ref(self, addr: SymWord) -> WordRef:
        """Atomic handle on one symmetric word."""
        assert self.words is not None
        return self.words.ref(self._base(addr.region, addr.offset))

    def slice(self, addr: SymArray) -> WordSlice:
        """Atomic handle on a symmetric word array."""
        assert self.words is not None
        return self.words.slice(
            self._base(addr.region, addr.offset, addr.length), addr.length
        )
