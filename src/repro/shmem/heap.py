"""Symmetric-heap allocation helpers.

OpenSHMEM programs allocate symmetric objects with ``shmem_malloc``; every
PE gets the same object at the same offset.  This module provides a small
allocator that packs named 64-bit variables and arrays into one shared
word region, returning :class:`SymWord` / :class:`SymArray` handles that
carry their ``(region, offset)`` address — the currency the NIC layer
understands.

The allocator is deliberately backend-agnostic: anything satisfying
:class:`HeapBackend` can host the regions.  Two substrates implement it
today — the discrete-event fabric's
:class:`~repro.fabric.memory.SymmetricHeap` (simulated NIC atomics) and
the multiprocess :class:`~repro.mp.heap.MpHeap`
(anonymous shared-mapping words behind striped-lock atomics) —
so the same layout code describes a queue's symmetric footprint on
either substrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@runtime_checkable
class HeapBackend(Protocol):
    """The seam a symmetric-heap substrate must provide.

    ``alloc_words`` / ``alloc_bytes`` create a named region sized in
    64-bit words / raw bytes respectively; the allocator addresses into
    regions with plain ``(region, offset)`` pairs afterwards.  A
    word-only backend may raise ``NotImplementedError`` from
    ``alloc_bytes`` — callers that never reserve byte buffers (the mp
    substrate's queues) never trigger it.
    """

    def alloc_words(self, name: str, nwords: int): ...

    def alloc_bytes(self, name: str, nbytes: int): ...


@dataclass(frozen=True)
class SymWord:
    """Address of one symmetric 64-bit word."""

    region: str
    offset: int


@dataclass(frozen=True)
class SymArray:
    """Address of a symmetric array of 64-bit words."""

    region: str
    offset: int
    length: int

    def word(self, index: int) -> SymWord:
        """Address of element ``index``."""
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        return SymWord(self.region, self.offset + index)


@dataclass(frozen=True)
class SymBytes:
    """Address of a symmetric byte buffer."""

    region: str
    offset: int
    length: int


class SymmetricAllocator:
    """Packs named symmetric variables into shared heap regions.

    Usage::

        alloc = SymmetricAllocator(heap, prefix="rt")
        flag = alloc.word("term_flag")
        counts = alloc.array("counts", 4)
        alloc.commit()          # actually allocates the backing region

    ``commit`` must be called exactly once, after all reservations.

    ``heap`` is any :class:`HeapBackend` — the fabric's simulated
    symmetric heap or the multiprocess shared-memory heap.
    """

    def __init__(self, heap: HeapBackend, prefix: str) -> None:
        self.heap = heap
        self.prefix = prefix
        self._word_cursor = 0
        self._byte_cursor = 0
        self._committed = False
        self._pending_words: list[tuple[str, int]] = []
        self._pending_bytes: list[tuple[str, int]] = []

    @property
    def word_region(self) -> str:
        """Name of the backing word region."""
        return f"{self.prefix}.words"

    @property
    def byte_region(self) -> str:
        """Name of the backing byte region."""
        return f"{self.prefix}.bytes"

    def _check_open(self) -> None:
        if self._committed:
            raise RuntimeError("allocator already committed")

    def word(self, name: str) -> SymWord:
        """Reserve one 64-bit word."""
        self._check_open()
        addr = SymWord(self.word_region, self._word_cursor)
        self._pending_words.append((name, 1))
        self._word_cursor += 1
        return addr

    def array(self, name: str, length: int) -> SymArray:
        """Reserve an array of ``length`` words."""
        self._check_open()
        if length <= 0:
            raise ValueError(f"array length must be positive, got {length}")
        addr = SymArray(self.word_region, self._word_cursor, length)
        self._pending_words.append((name, length))
        self._word_cursor += length
        return addr

    def buffer(self, name: str, nbytes: int) -> SymBytes:
        """Reserve a byte buffer."""
        self._check_open()
        if nbytes <= 0:
            raise ValueError(f"buffer size must be positive, got {nbytes}")
        addr = SymBytes(self.byte_region, self._byte_cursor, nbytes)
        self._pending_bytes.append((name, nbytes))
        self._byte_cursor += nbytes
        return addr

    def commit(self) -> None:
        """Allocate the backing regions on every PE."""
        self._check_open()
        self._committed = True
        if self._word_cursor:
            self.heap.alloc_words(self.word_region, self._word_cursor)
        if self._byte_cursor:
            self.heap.alloc_bytes(self.byte_region, self._byte_cursor)

    @property
    def words_reserved(self) -> int:
        """Total words reserved so far."""
        return self._word_cursor

    @property
    def bytes_reserved(self) -> int:
        """Total payload bytes reserved so far."""
        return self._byte_cursor
