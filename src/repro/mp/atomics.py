"""Cross-process atomic 64-bit words over one anonymous shared mapping.

THE atomic seam of the multiprocess substrate: every access to shared
words goes through :class:`ShmWords` — no other module in ``repro.mp``
touches the raw mapping (grep for ``mmap`` to audit; it appears only
here).  The same words serve the threads backend (thief threads of one
process, GIL present) and the mp backend, where the preemption is the OS
kernel scheduling *separate processes*, GIL nowhere in sight.  CPython
has no shared-memory CAS, so the ops fall in the paper's three classes
(a ``get`` is not an AMO):

* **read-modify-writes and stores** (``fetch_add``, ``swap``,
  ``compare_swap``, ``store``) hold one of a *striped* set of
  ``multiprocessing.Lock``\\ s, so operations on the same word serialize
  (real atomicity across address spaces) while contended victims on
  different stripes don't serialize the whole world.  Every data word
  has a shadow *sequence word*; a locked writer bumps it to odd before
  and back to even after the data write.
* **loads** (:meth:`ShmWords.load`, alias :meth:`ShmWords.load_seq`)
  take no lock: they read ``seq / data / seq`` and retry on an odd or
  changed sequence (a seqlock).  Owner-local metadata inspection, probes
  of empty victims and termination reads — the hottest reads of the
  work-stealing drivers — never touch the stripes the thieves' claims
  are hammering.
* **block copies** (:meth:`ShmWords.read_block` /
  :meth:`ShmWords.write_block`): one contiguous ``bytes()`` of the
  underlying buffer for regions the caller owns exclusively — a thief's
  claimed steal block, an owner's unpublished fill region.  Exclusive
  ownership is the whole contract: these never touch locks or sequence
  words.

Ordering assumption: the lock-free reads rely on loads not being
reordered with other loads (the seqlock's first sequence read happens
before its data read, which happens before the second).  That holds on
x86-64's TSO memory model, the host this substrate targets; the stripe
locks' semaphore operations are full barriers on the writer side.

No wait is unbounded.  A stripe acquire that does not succeed within
``stall_s``, and a read that sees no clean sample for ``stall_s`` (a
sequence left odd), raise :class:`~repro.mp.errors.MpStallError` naming
the stripe (and the word, for a read).  Nothing is repaired: a PE death
ends the run (see :class:`~repro.mp.fleet.Fleet`).

Two helpers of the word users live here too: :class:`RecordCodec`
packs task records into the byte blobs the block copies move, and
:class:`Backoff` is the bounded waiter every polling loop spins on.
"""

from __future__ import annotations

import mmap
import multiprocessing
import struct
import time

from .errors import MpStallError, StallTimeout

_U64_MASK = (1 << 64) - 1
_WORD = struct.Struct("<Q")
_unpack_word = _WORD.unpack_from
WORD_BYTES = _WORD.size

#: Lock-free read spins between CPU yields (and stall-clock checks).
_SEQ_READ_SPINS = 64

#: Default lock-stripe count; power of two so ``index % nstripes`` mixes.
DEFAULT_STRIPES = 16

#: Hard wall-clock bound on one stripe acquire (or one seqlock read that
#: never sees a clean sample) before an MpStallError names the stripe.
DEFAULT_STALL_S = 120.0


def _preferred_context():
    """The fork context: a child inherits the anonymous mapping, which
    a spawned child could not attach."""
    return multiprocessing.get_context("fork")


class ShmWords:
    """A fixed array of 64-bit words in one anonymous shared mapping.

    All word accesses are atomic with respect to every process sharing
    the mapping: the creator and the children it forks afterwards.  The
    kernel zero-fills it and frees it with the last process that maps
    it, so there is no name to unlink and nothing to clean up after a
    crash; :meth:`close` only detaches this process early.
    """

    def __init__(
        self,
        nwords: int,
        nstripes: int = DEFAULT_STRIPES,
        ctx=None,
        stall_s: float = DEFAULT_STALL_S,
    ) -> None:
        if nwords <= 0:
            raise ValueError(f"nwords must be positive, got {nwords}")
        if nstripes <= 0:
            raise ValueError(f"nstripes must be positive, got {nstripes}")
        ctx = ctx or _preferred_context()
        self.nwords = nwords
        self._locks = tuple(ctx.Lock() for _ in range(nstripes))
        # Layout: nwords data words, then nwords shadow sequence words
        # (the seqlock plane — see load_seq).  Fd -1 is anonymous, and
        # the default flags are MAP_SHARED: forked children share it.
        self._map = mmap.mmap(-1, 2 * nwords * WORD_BYTES)
        self._buf = memoryview(self._map)
        self._seq_base = nwords * WORD_BYTES
        self.stall_s = stall_s

    # -- the locked ops ------------------------------------------------
    def _stripe(self, index: int) -> int:
        return index % len(self._locks)

    def _check(self, index: int) -> int:
        if not 0 <= index < self.nwords:
            raise IndexError(f"word {index} out of range [0, {self.nwords})")
        return index * WORD_BYTES

    def _lock(self, index: int):
        """Acquire ``index``'s stripe lock, waiting at most ``stall_s``,
        and return it for the caller to release."""
        lock = self._locks[index % len(self._locks)]
        if not lock.acquire(True, self.stall_s):
            raise MpStallError("stripe lock acquire stalled",
                               stripe=self._stripe(index),
                               waited_s=self.stall_s)
        return lock

    def swap(self, index: int, value: int) -> int:
        """Atomic swap; returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._buf
        lock = self._lock(index)
        try:
            old = _unpack_word(buf, off)[0]
            seq = _unpack_word(buf, soff)[0]
            _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
            _WORD.pack_into(buf, off, value & _U64_MASK)
            _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            lock.release()

    #: An atomic write is a swap whose old value nobody reads.
    store = swap

    def fetch_add(self, index: int, delta: int) -> int:
        """Atomic fetch-and-add (wraps mod 2^64); returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._buf
        lock = self._lock(index)
        try:
            old = _unpack_word(buf, off)[0]
            seq = _unpack_word(buf, soff)[0]
            _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
            _WORD.pack_into(buf, off, (old + delta) & _U64_MASK)
            _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            lock.release()

    def compare_swap(self, index: int, expected: int, desired: int) -> int:
        """Atomic compare-and-swap; returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._buf
        lock = self._lock(index)
        try:
            old = _unpack_word(buf, off)[0]
            if old == (expected & _U64_MASK):
                seq = _unpack_word(buf, soff)[0]
                _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
                _WORD.pack_into(buf, off, desired & _U64_MASK)
                _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            lock.release()

    # -- lock-free reads and the data plane ----------------------------
    def load_seq(self, index: int) -> int:
        """Lock-free read of word ``index`` via its sequence word.

        Seqlock read protocol: sample the shadow sequence word, read the
        data word, re-sample the sequence; an even and unchanged sequence
        means no locked writer touched the word mid-read, so the value is
        consistent.  Retries (with a CPU yield every ``_SEQ_READ_SPINS``
        attempts) until a clean sample lands; after ``stall_s`` without
        one — a sequence left odd — raises
        :class:`~repro.mp.errors.MpStallError` naming the word and its
        stripe instead of spinning forever.
        """
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._buf
        spins = 0
        t0 = None
        while True:
            s0 = _unpack_word(buf, soff)[0]
            if not s0 & 1:
                value = _unpack_word(buf, off)[0]
                if _unpack_word(buf, soff)[0] == s0:
                    return value
            spins += 1
            if spins % _SEQ_READ_SPINS == 0:
                time.sleep(0)
                now = time.monotonic()
                if t0 is None:
                    t0 = now
                elif now - t0 >= self.stall_s:
                    raise MpStallError(
                        f"seqlock read of word {index} found no clean "
                        f"sample (sequence left odd?)",
                        stripe=self._stripe(index), waited_s=now - t0,
                    )

    #: A plain read is the seqlock read: the paper's ``get`` is no AMO.
    load = load_seq

    def read_block(self, start: int, count: int) -> bytes:
        """One contiguous lock-free copy of ``count`` words as bytes.

        Contract: the caller holds an *exclusive claim* on
        ``[start, start + count)`` — e.g. a thief that has already won
        the range via ``fetch_add`` on the control word — so no writer
        can race the copy.  No locks, no sequence words: one
        ``bytes(memoryview)`` slice out of the mapping.
        """
        if count <= 0:
            return b""
        self._check(start)
        self._check(start + count - 1)
        off = start * WORD_BYTES
        return bytes(self._buf[off : off + count * WORD_BYTES])

    def write_block(self, start: int, data: bytes) -> None:
        """One contiguous lock-free write of packed little-endian words.

        Contract: single writer on an *unpublished* region — the range
        only becomes visible to readers after a subsequent control-word
        update through the locked API (which fences via its stripe
        lock).  ``len(data)`` must be a multiple of the word size.
        Sequence words are not touched: ``load_seq`` on words inside a
        block-written range is only sound after that publish.
        """
        nbytes = len(data)
        if nbytes == 0:
            return
        if nbytes % WORD_BYTES:
            raise ValueError(
                f"block length {nbytes} not a multiple of {WORD_BYTES}"
            )
        count = nbytes // WORD_BYTES
        self._check(start)
        self._check(start + count - 1)
        off = start * WORD_BYTES
        self._buf[off : off + nbytes] = data

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping."""
        try:
            self._buf.release()
            self._map.close()
        except BufferError:
            pass  # exported memoryviews still alive; mapping dies with us

    #: Nothing to destroy: the kernel frees the mapping with its last
    #: process.
    unlink = close

    def ref(self, index: int) -> "WordRef":
        """An atomic handle on one word (bounds-checked here, once)."""
        self._check(index)
        return WordRef(self, index)

    def slice(self, start: int, length: int) -> "WordSlice":
        """An array of atomic handles over a word range."""
        self._check(start)
        if length > 0:
            self._check(start + length - 1)
        return WordSlice(self, start, length)


class WordRef:
    """One shared word: ``store`` / ``swap`` / ``fetch_add`` /
    ``compare_swap``, and the lock-free ``load`` (alias ``load_seq``)."""

    __slots__ = ("_words", "_index", "_buf", "_off", "_soff")

    def __init__(self, words: ShmWords, index: int) -> None:
        self._words = words
        self._index = index
        # The mapping's own view (no new export: ``close`` still works)
        # and the word's offsets, for the one-frame ``load_seq``.
        self._buf = words._buf
        self._off = index * WORD_BYTES
        self._soff = words._seq_base + self._off

    def load_seq(self) -> int:
        """Lock-free seqlock read (see :meth:`ShmWords.load_seq`).

        One clean ``seq / data / seq`` sample inline; a sample that meets
        a writer falls back to the full retry loop, with its spin, yield
        and stall diagnostic.
        """
        buf, soff = self._buf, self._soff
        s0 = _unpack_word(buf, soff)[0]
        if not s0 & 1:
            value = _unpack_word(buf, self._off)[0]
            if _unpack_word(buf, soff)[0] == s0:
                return value
        return self._words.load_seq(self._index)

    load = load_seq

    def store(self, value: int) -> None:
        self._words.store(self._index, value)

    def swap(self, value: int) -> int:
        return self._words.swap(self._index, value)

    def fetch_add(self, delta: int) -> int:
        return self._words.fetch_add(self._index, delta)

    def compare_swap(self, expected: int, desired: int) -> int:
        return self._words.compare_swap(self._index, expected, desired)


class WordSlice:
    """A shared word range: indexable into :class:`WordRef` handles."""

    __slots__ = ("_words", "_start", "_length")

    def __init__(self, words: ShmWords, start: int, length: int) -> None:
        self._words = words
        self._start = start
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> WordRef:
        if not 0 <= index < self._length:
            raise IndexError(f"index {index} out of range [0, {self._length})")
        return self._words.ref(self._start + index)

    def snapshot(self) -> list[int]:
        """Non-atomic-across-words read of all values."""
        return [self._words.load(self._start + i) for i in range(self._length)]

    def read_block(self, start: int, count: int) -> bytes:
        """Lock-free bulk copy relative to the slice (exclusive-claim
        contract of :meth:`ShmWords.read_block`)."""
        if not (0 <= start and start + count <= self._length):
            raise IndexError(
                f"block [{start}, {start + count}) out of range "
                f"[0, {self._length})"
            )
        return self._words.read_block(self._start + start, count)

    def write_block(self, start: int, data: bytes) -> None:
        """Lock-free bulk write relative to the slice (single-writer
        unpublished-region contract of :meth:`ShmWords.write_block`)."""
        count = len(data) // WORD_BYTES
        if not (0 <= start and start + count <= self._length):
            raise IndexError(
                f"block [{start}, {start + count}) out of range "
                f"[0, {self._length})"
            )
        self._words.write_block(self._start + start, data)


# ----------------------------------------------------------------------
# What the word users copy with and wait with
# ----------------------------------------------------------------------

class RecordCodec:
    """Fixed-width task-record codec for bulk data-plane copies.

    A task record is ``words_per_task`` whole 64-bit words.  Encoding a
    batch produces one ``bytes`` blob suitable for a single
    ``write_block``; decoding the blob a ``read_block`` returned recovers
    the records without touching the atomic word API.  By default the
    words are unsigned little-endian ints: single-word tasks decode to
    plain ints (matching what per-word ``load`` would have produced),
    wider tasks to tuples.  A workload may declare its own ``struct``
    format of the same width (``fmt``), one word included, and its
    records are that format's tuples.
    """

    __slots__ = ("words_per_task", "record_bytes", "_struct", "_ints")

    def __init__(self, words_per_task: int = 1, fmt: str | None = None) -> None:
        if words_per_task <= 0:
            raise ValueError(
                f"words_per_task must be positive, got {words_per_task}"
            )
        self.words_per_task = words_per_task
        self._ints = fmt is None and words_per_task == 1
        self._struct = struct.Struct(fmt or f"<{words_per_task}Q")
        self.record_bytes = self._struct.size
        if self.record_bytes != words_per_task * WORD_BYTES:
            raise ValueError(f"record {fmt!r} is not {words_per_task} words")

    def encode(self, tasks) -> bytes:
        """Pack a batch of records into one contiguous blob."""
        if self._ints:
            return struct.pack(f"<{len(tasks)}Q", *tasks)
        pack = self._struct.pack
        return b"".join([pack(*t) for t in tasks])

    def decode(self, data: bytes) -> list:
        """Unpack a blob back into records (ints or tuples)."""
        if self._ints:
            return list(struct.unpack(f"<{len(data) // 8}Q", data))
        return list(self._struct.iter_unpack(data))


class Backoff:
    """Adaptive spin → yield → exponential-sleep waiter.

    The first ``spins`` calls to :meth:`wait` return immediately (pure
    spin — right when the awaited writer is mid-critical-section on
    another core); the next ``yields`` calls release the GIL/CPU with
    ``time.sleep(0)``; after that each call sleeps, doubling from
    ``sleep_s`` up to ``max_sleep_s``.  Call :meth:`reset` whenever
    progress is observed so a busy phase snaps back to spinning.  A
    ``limit`` caps one call's sleep: a waiter that knows when its next
    event is due never sleeps past it.

    With ``deadline_s`` set, a single no-progress stretch (wall time
    since the last :meth:`reset`) longer than the deadline raises
    :class:`~repro.mp.errors.StallTimeout`.  Polling loops must never be
    able to spin forever silently.
    """

    __slots__ = ("spins", "yields", "sleep_s", "max_sleep_s", "_n",
                 "deadline_s", "_t0")

    def __init__(
        self,
        spins: int = 16,
        yields: int = 8,
        sleep_s: float = 1e-5,
        max_sleep_s: float = 1e-3,
        deadline_s: float | None = None,
    ) -> None:
        self.spins = spins
        self.yields = yields
        self.sleep_s = sleep_s
        self.max_sleep_s = max_sleep_s
        self.deadline_s = deadline_s
        self._n = 0
        self._t0 = None

    def reset(self) -> None:
        self._n = 0
        self._t0 = None

    def wait(self, limit: float | None = None) -> None:
        n = self._n
        self._n = n + 1
        if self.deadline_s is not None:
            now = time.monotonic()
            if self._t0 is None:
                self._t0 = now
            elif now - self._t0 >= self.deadline_s:
                raise StallTimeout(
                    f"no progress for {now - self._t0:.1f}s "
                    f"(deadline {self.deadline_s}s)"
                )
        if n < self.spins:
            return
        n -= self.spins
        if n < self.yields:
            time.sleep(0)
            return
        delay = min(self.sleep_s * (1 << min(n - self.yields, 12)),
                    self.max_sleep_s)
        if limit is not None and limit < delay:
            delay = max(limit, 0.0)
        time.sleep(delay)
