"""Symmetric-heap memory model.

OpenSHMEM exposes a *symmetric heap*: every PE allocates the same regions
at the same offsets, so a remote address is fully described by
``(pe, region, offset)``.  This module implements that heap with plain
Python storage chosen for scalar access speed:

* **word regions** — per-PE ``list[int]`` of unsigned 64-bit words, the
  unit of atomic operations (OpenSHMEM atomics operate on values up to 64
  bits, which is exactly the constraint the stealval design lives within);
* **byte regions** — per-PE ``bytearray`` buffers used for task payload
  storage.

Plain lists beat a numpy matrix here because every access is a single
scalar: ``int(arr[pe, off])`` costs a numpy scalar box + unbox per call,
while ``row[off]`` is one C-level list index.  (The heap is the hottest
data structure in the simulator — every queue operation, steal, and
termination probe lands here.)

All mutation goes through methods on :class:`SymmetricHeap`; the NIC layer
invokes these *at message-arrival virtual time*, so the heap itself needs
no locking — event ordering is the serialization.  Hot *local* readers may
take a direct :meth:`word_view`/:meth:`byte_view` on their own PE's row;
views must be treated as read-only by general code because writes through
a view bypass bounds checks, ``shmem_wait_until`` waiter notification and
the write journal the invariant oracle reads (the queue layer writes task
payload bytes through views — byte regions carry neither).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import Callable

from .errors import AddressError, PEIndexError, RegionError

_U64_MASK = (1 << 64) - 1

#: Waiter callback: invoked with the word's new value after a mutation.
#: Return True to deregister (condition satisfied).
WordWaiter = Callable[[int], bool]


@dataclass(frozen=True)
class RegionSpec:
    """Shape of one symmetric region."""

    name: str
    kind: str  # "words" | "bytes"
    length: int  # words or bytes, per PE

    def __post_init__(self) -> None:
        if self.kind not in ("words", "bytes"):
            raise RegionError(f"region kind must be words|bytes, got {self.kind!r}")
        if self.length <= 0:
            raise RegionError(f"region {self.name!r} length must be positive")


class SymmetricHeap:
    """Per-PE symmetric memory, addressed by ``(pe, region, offset)``."""

    def __init__(self, npes: int) -> None:
        if npes <= 0:
            raise PEIndexError(f"npes must be positive, got {npes}")
        self.npes = npes
        #: region name -> per-PE rows of 64-bit words.
        self._words: dict[str, list[list[int]]] = {}
        #: region name -> per-PE byte buffers.
        self._bytes: dict[str, list[bytearray]] = {}
        self._specs: dict[str, RegionSpec] = {}
        # Waiters for shmem_wait_until: (pe, region, offset) -> callbacks.
        self._waiters: dict[tuple[int, str, int], list[WordWaiter]] = {}
        #: The one gate every word mutator tests before calling
        #: ``_notify``: the waiter table itself (empty, hence false, on
        #: the bare path) or ``True`` while a write journal is attached.
        self._watched: dict | bool = self._waiters
        self._journal: list[tuple[int, str, int]] | None = None

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def alloc_words(self, name: str, nwords: int, fill: int = 0) -> RegionSpec:
        """Allocate a symmetric array of ``nwords`` 64-bit words on every PE."""
        spec = RegionSpec(name, "words", nwords)
        self._register(spec)
        fill &= _U64_MASK
        self._words[name] = [[fill] * nwords for _ in range(self.npes)]
        return spec

    def alloc_bytes(self, name: str, nbytes: int) -> RegionSpec:
        """Allocate a symmetric byte buffer of ``nbytes`` on every PE."""
        spec = RegionSpec(name, "bytes", nbytes)
        self._register(spec)
        self._bytes[name] = [bytearray(nbytes) for _ in range(self.npes)]
        return spec

    def _register(self, spec: RegionSpec) -> None:
        if spec.name in self._specs:
            raise RegionError(f"region {spec.name!r} already allocated")
        self._specs[spec.name] = spec

    def spec(self, name: str) -> RegionSpec:
        """Return the :class:`RegionSpec` for ``name``."""
        try:
            return self._specs[name]
        except KeyError:
            raise RegionError(f"no such region: {name!r}") from None

    # ------------------------------------------------------------------
    # bounds checking
    # ------------------------------------------------------------------
    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")

    def _word_row(self, pe: int, region: str, offset: int, count: int = 1) -> list[int]:
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not (0 <= offset and offset + count <= len(row)):
            raise AddressError(
                f"word access [{offset}, {offset + count}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        return row

    def _byte_row(self, pe: int, region: str, offset: int, count: int) -> bytearray:
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            buf = self._bytes[region][pe]
        except KeyError:
            raise RegionError(f"no byte region {region!r}") from None
        if not (0 <= offset and offset + count <= len(buf)):
            raise AddressError(
                f"byte access [{offset}, {offset + count}) exceeds region "
                f"{region!r} of {len(buf)} bytes"
            )
        return buf

    # ------------------------------------------------------------------
    # direct views (hot local fast path)
    # ------------------------------------------------------------------
    def word_view(self, pe: int, region: str) -> list[int]:
        """The live word row for ``(pe, region)`` — read-only by contract.

        Local hot paths (queue owners reading their own metadata) index
        this list directly, skipping per-access bounds checks.  Writing
        through the view would bypass waiter notification and the write
        journal; mutate via :meth:`store`/:meth:`fetch_add` instead.
        """
        self._check_pe(pe)
        try:
            return self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None

    def byte_view(self, pe: int, region: str) -> bytearray:
        """The live byte buffer for ``(pe, region)``.

        Byte regions carry no waiters, so the queue layer both reads and
        writes task payload slots through this view (slot arithmetic
        guarantees bounds).
        """
        self._check_pe(pe)
        try:
            return self._bytes[region][pe]
        except KeyError:
            raise RegionError(f"no byte region {region!r}") from None

    # ------------------------------------------------------------------
    # word operations (atomic unit)
    # ------------------------------------------------------------------
    # The scalar ops below inline _word_row's checks: they are the
    # hottest calls in the simulator (every queue op, steal, and
    # termination probe is one of these), and the extra call frame per
    # access is measurable at fig7 scale.  Bounds/requirement errors are
    # byte-identical to _word_row's.

    def load(self, pe: int, region: str, offset: int) -> int:
        """Read one 64-bit word."""
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not 0 <= offset < len(row):
            raise AddressError(
                f"word access [{offset}, {offset + 1}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        return row[offset]

    def store(self, pe: int, region: str, offset: int, value: int) -> None:
        """Write one 64-bit word (value is masked to 64 bits)."""
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not 0 <= offset < len(row):
            raise AddressError(
                f"word access [{offset}, {offset + 1}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        value &= _U64_MASK
        row[offset] = value
        if self._watched:
            self._notify(pe, region, offset, value)

    def fetch_add(self, pe: int, region: str, offset: int, delta: int) -> int:
        """Atomic fetch-and-add; returns the *old* value.  Wraps mod 2^64."""
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not 0 <= offset < len(row):
            raise AddressError(
                f"word access [{offset}, {offset + 1}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        old = row[offset]
        row[offset] = new = (old + delta) & _U64_MASK
        if self._watched:
            self._notify(pe, region, offset, new)
        return old

    def swap(self, pe: int, region: str, offset: int, value: int) -> int:
        """Atomic swap; returns the old value."""
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not 0 <= offset < len(row):
            raise AddressError(
                f"word access [{offset}, {offset + 1}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        value &= _U64_MASK
        old = row[offset]
        row[offset] = value
        if self._watched:
            self._notify(pe, region, offset, value)
        return old

    def compare_swap(
        self, pe: int, region: str, offset: int, expected: int, desired: int
    ) -> int:
        """Atomic compare-and-swap; returns the old value (match ⇒ stored)."""
        if not 0 <= pe < self.npes:
            raise PEIndexError(f"PE {pe} out of range [0, {self.npes})")
        try:
            row = self._words[region][pe]
        except KeyError:
            raise RegionError(f"no word region {region!r}") from None
        if not 0 <= offset < len(row):
            raise AddressError(
                f"word access [{offset}, {offset + 1}) exceeds region "
                f"{region!r} of {len(row)} words"
            )
        old = row[offset]
        if old == (expected & _U64_MASK):
            desired &= _U64_MASK
            row[offset] = desired
            if self._watched:
                self._notify(pe, region, offset, desired)
        return old

    def load_words(self, pe: int, region: str, offset: int, count: int) -> list[int]:
        """Read ``count`` consecutive words (one get on the wire)."""
        row = self._word_row(pe, region, offset, count)
        return row[offset : offset + count]

    def store_words(self, pe: int, region: str, offset: int, values: list[int]) -> None:
        """Write consecutive words."""
        row = self._word_row(pe, region, offset, len(values))
        masked = [v & _U64_MASK for v in values]
        row[offset : offset + len(masked)] = masked
        if self._watched:
            for i, v in enumerate(masked):
                self._notify(pe, region, offset + i, v)

    # ------------------------------------------------------------------
    # word waiters (shmem_wait_until support)
    # ------------------------------------------------------------------
    def add_waiter(self, pe: int, region: str, offset: int, waiter: WordWaiter) -> None:
        """Register a callback fired on every mutation of one word.

        The callback receives the new value and returns True once its
        condition is met, which removes it.  This is the mechanism behind
        ``shmem_wait_until`` — hardware wakes the waiter on a remote
        write instead of the waiter burning poll cycles.
        """
        self._word_row(pe, region, offset)  # validate the address
        self._waiters.setdefault((pe, region, offset), []).append(waiter)

    def _notify(self, pe: int, region: str, offset: int, new_value: int) -> None:
        key = (pe, region, offset)
        if self._journal is not None:
            self._journal.append(key)
        waiters = self._waiters.get(key)
        if not waiters:
            return
        remaining = [w for w in waiters if not w(new_value)]
        if remaining:
            self._waiters[key] = remaining
        else:
            del self._waiters[key]

    # ------------------------------------------------------------------
    # write journal (invariant-oracle support)
    # ------------------------------------------------------------------
    def attach_journal(self) -> list[tuple[int, str, int]]:
        """Journal every word write from now on; returns the live list.

        Each mutator appends ``(pe, region, offset)`` per word it writes
        (a failed compare-swap writes none); the one consumer drains the
        list in place.  Until this is called nothing is recorded and the
        mutators pay nothing.
        """
        if self._journal is not None:
            raise RuntimeError("a write journal is already attached")
        self._journal = []
        self._watched = True
        return self._journal

    def detach_journal(self) -> None:
        """Stop journaling and restore the waiters-only gate."""
        self._journal = None
        self._watched = self._waiters

    # ------------------------------------------------------------------
    # byte operations (payload)
    # ------------------------------------------------------------------
    def read_bytes(self, pe: int, region: str, offset: int, count: int) -> bytes:
        """Read ``count`` bytes."""
        buf = self._byte_row(pe, region, offset, count)
        return bytes(buf[offset : offset + count])

    def write_bytes(self, pe: int, region: str, offset: int, data: bytes) -> None:
        """Write a byte string."""
        buf = self._byte_row(pe, region, offset, len(data))
        buf[offset : offset + len(data)] = data
