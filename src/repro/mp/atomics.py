"""Cross-process atomic 64-bit words over ``multiprocessing.shared_memory``.

THE atomic seam of the multiprocess substrate: every access to shared
words goes through :class:`ShmWords` — no other module in ``repro.mp``
touches the raw ``SharedMemory`` buffer (grep for ``_shm.buf`` to audit;
it appears only here).  Semantics first: each operation holds one of a
*striped* set of ``multiprocessing.Lock``\\ s, so operations on the same
word serialize (real atomicity across address spaces) while contended
victims on different stripes don't serialize the whole world.

This trades raw speed for honest cross-process mutual exclusion —
CPython has no shared-memory CAS.  The same words serve the threads
backend (thief threads of one process, GIL present) and the mp backend,
where the preemption is the OS kernel scheduling *separate processes*,
GIL nowhere in sight.

Two lock-free escape hatches keep the data plane off the lock path:

* **seqlock reads** (:meth:`ShmWords.load_seq`): every data word has a
  shadow *sequence word*; locked writers bump it to odd before and back
  to even after the data write, so a reader can spin on
  ``seq / data / seq`` without taking any stripe lock and retry on a
  torn observation.  Owner-local metadata inspection (the hottest read
  in the work-stealing drivers) uses this path.
* **block copies** (:meth:`ShmWords.read_block` /
  :meth:`ShmWords.write_block`): one contiguous ``bytes()`` of the
  underlying buffer for regions the caller owns exclusively — a thief's
  claimed steal block, an owner's unpublished fill region.  Exclusive
  ownership is the whole contract: these never touch locks or sequence
  words.

**Crash-fault tolerance (lock leases).**  A ``multiprocessing.Lock`` is
a POSIX semaphore: SIGKILL its holder and the semaphore stays taken
forever, wedging every process that shares the stripe.  Every stripe
therefore carries two *lease words* in the shared segment — holder pid
and lease expiry (``monotonic_ns``, CLOCK_MONOTONIC is system-wide on
Linux) — written on acquire and cleared *before* release.  A contender
that cannot acquire within a timeout slice inspects the lease: a holder
that is **dead** (pid liveness probe) with an **expired** lease is
unambiguously fail-stopped mid-critical-section, and :meth:`break_lease`
repairs the stripe — re-evens any odd shadow sequence word (so seqlock
readers stop spinning on a torn write), marks those words suspect,
clears the lease, and force-releases the semaphore.  Breakers serialize
on a dedicated repair lock (with its own lease words) and re-verify the
holder under it, so exactly one break happens per death.  No stripe
lock may block forever: a holder that is *alive* but never releases
raises :class:`~repro.mp.errors.MpStallError` after ``stall_s`` naming
the stripe and holder pid.  Lease words add bookkeeping writes to the
locked path but no semantics change — lock-holder successions are
exactly as before when nobody dies.
"""

from __future__ import annotations

import multiprocessing
import os
import struct
import time
from dataclasses import dataclass

_U64_MASK = (1 << 64) - 1
_WORD = struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")
_unpack_word = _WORD.unpack_from
WORD_BYTES = _WORD.size

#: Lock-free read spins before yielding the CPU to the (single) writer.
_SEQ_READ_SPINS = 64

#: Lock-free read spins between dead-writer lease inspections.
_SEQ_REPAIR_SPINS = 4096

#: Default lock-stripe count; power of two so ``index % nstripes`` mixes.
DEFAULT_STRIPES = 16

#: Lease duration written on every stripe acquire.  Critical sections
#: are microseconds, so an *expired* lease whose holder pid is *dead*
#: is unambiguous; short means crash recovery is sub-second.
DEFAULT_LEASE_S = 0.2

#: Hard wall-clock bound on one stripe acquire (or stuck seqlock read)
#: before an MpStallError names the suspect.  Generous: it only fires
#: for live-but-wedged holders, never for dead ones (leases break those).
DEFAULT_STALL_S = 120.0

#: Semaphore wait slice between lease inspections while contending.
_ACQUIRE_SLICE_S = 0.02


def _preferred_context():
    """A fork context when the platform has one (cheap, inherits the
    mapping), else the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


#: This process's pid, for lease stamps on the locked hot path.  A
#: plain ``os.getpid()`` there costs a real syscall per locked op; the
#: cache is refreshed in fork children via ``os.register_at_fork`` (and
#: spawn children re-import the module), so — unlike a value captured at
#: object construction — it can never leak a parent's pid into a
#: child's lease.
_PID = os.getpid()


def _refresh_pid() -> None:
    global _PID
    _PID = os.getpid()


if hasattr(os, "register_at_fork"):  # pragma: no branch
    os.register_at_fork(after_in_child=_refresh_pid)


def pid_alive(pid: int) -> bool:
    """Is ``pid`` a live (running, non-zombie) process?

    A SIGKILLed child lingers as a zombie until its parent reaps it,
    and the signal-0 probe succeeds on zombies — but a zombie will
    never release a lock, so for lease-breaking purposes it is dead.
    Sibling processes cannot reap it themselves, hence the explicit
    ``/proc`` state check where available.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
        # Field 3, after the parenthesized (and possibly space-laden)
        # command name: single-letter state, 'Z' when zombie.
        return stat[stat.rindex(b")") + 2:stat.rindex(b")") + 3] != b"Z"
    except (OSError, ValueError):
        return True  # no procfs: best effort, assume alive


@dataclass(frozen=True)
class LeaseBreak:
    """One repaired stripe: who died and which words were suspect."""

    stripe: int
    dead_pid: int
    suspect_words: tuple[int, ...]


class ShmWords:
    """A fixed array of 64-bit words in one shared-memory segment.

    All word accesses are atomic with respect to every process attached
    to the segment.  The creating process should call :meth:`unlink`
    exactly once when the run is over (children only :meth:`close`).

    Picklable: sending an instance to a ``spawn``-started process
    re-attaches by segment name (the stripe locks travel through
    multiprocessing's own reduction).  Under ``fork`` children simply
    inherit the mapping.
    """

    def __init__(
        self,
        nwords: int,
        nstripes: int = DEFAULT_STRIPES,
        ctx=None,
        lease_s: float = DEFAULT_LEASE_S,
        stall_s: float = DEFAULT_STALL_S,
    ) -> None:
        if nwords <= 0:
            raise ValueError(f"nwords must be positive, got {nwords}")
        if nstripes <= 0:
            raise ValueError(f"nstripes must be positive, got {nstripes}")
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        from multiprocessing import shared_memory

        ctx = ctx or _preferred_context()
        self.nwords = nwords
        self._locks = tuple(ctx.Lock() for _ in range(nstripes))
        self._repair_lock = ctx.Lock()
        # Layout: nwords data words, then nwords shadow sequence words
        # (the seqlock plane — see load_seq), then 2 lease words per
        # stripe (holder pid, lease expiry monotonic_ns), then 3 admin
        # words (repair count, repair-lock holder pid, repair-lock
        # expiry).  Doubling the segment is cheap next to what it buys:
        # lock-free metadata reads and crash-breakable locks.
        total = 2 * nwords + 2 * len(self._locks) + 3
        self._shm = shared_memory.SharedMemory(
            create=True, size=total * WORD_BYTES
        )
        self._shm.buf[:] = bytes(total * WORD_BYTES)
        self._owner = True
        self._unlinked = False
        self._init_layout(lease_s, stall_s)

    def _init_layout(self, lease_s: float, stall_s: float) -> None:
        self._seq_base = self.nwords * WORD_BYTES
        self._meta_base = 2 * self.nwords * WORD_BYTES
        self._admin_base = self._meta_base + 2 * len(self._locks) * WORD_BYTES
        self.lease_s = lease_s
        self.stall_s = stall_s
        self._lease_ns = int(lease_s * 1e9)
        self._lease_offs = tuple(
            self._meta_base + 2 * s * WORD_BYTES
            for s in range(len(self._locks))
        )
        #: Per-process log of lease breaks this process performed.
        self.repair_log: list[LeaseBreak] = []
        #: Per-process set of words marked suspect by local repairs.
        self.suspect_words: set[int] = set()

    # -- pickling (spawn-method portability) ---------------------------
    def __getstate__(self):
        return {
            "nwords": self.nwords,
            "_locks": self._locks,
            "_repair_lock": self._repair_lock,
            "_name": self._shm.name,
            "lease_s": self.lease_s,
            "stall_s": self.stall_s,
        }

    def __setstate__(self, state):
        from multiprocessing import resource_tracker, shared_memory

        self.nwords = state["nwords"]
        self._locks = state["_locks"]
        self._repair_lock = state["_repair_lock"]
        self._shm = shared_memory.SharedMemory(name=state["_name"])
        # Attaching registered the segment with this process's resource
        # tracker; unregister it so a child killed mid-run (or exiting
        # cleanly) never races the creator's unlink with a double-unlink
        # warning at tracker shutdown.  The creator owns the lifecycle.
        try:
            resource_tracker.unregister(self._shm._name, "shared_memory")
        except Exception:
            pass
        self._owner = False
        self._unlinked = False
        self._init_layout(state["lease_s"], state["stall_s"])

    # -- leased stripe acquisition -------------------------------------
    def _stripe(self, index: int) -> int:
        return index % len(self._locks)

    def _lease_off(self, stripe: int) -> int:
        return self._lease_offs[stripe]

    def holder(self, stripe: int) -> tuple[int, int]:
        """Current (holder pid, lease expiry ns) of a stripe (racy read)."""
        return _PAIR.unpack_from(self._shm.buf, self._lease_offs[stripe])

    def _acquire(self, stripe: int) -> None:
        # _PID, never a pid captured at construction: a fork child
        # inherits this object by memory copy (no __setstate__), and a
        # parent-pid lease would read as permanently alive.  The module
        # cache is fork-hook refreshed, so it is always this process.
        if self._locks[stripe].acquire(False):
            _PAIR.pack_into(
                self._shm.buf, self._lease_offs[stripe], _PID,
                time.monotonic_ns() + self._lease_ns,
            )
            return
        self._acquire_slow(stripe)

    def _acquire_slow(self, stripe: int) -> None:
        lock = self._locks[stripe]
        t0 = time.monotonic()
        while True:
            if lock.acquire(timeout=_ACQUIRE_SLICE_S):
                _PAIR.pack_into(
                    self._shm.buf, self._lease_offs[stripe], _PID,
                    time.monotonic_ns() + self._lease_ns,
                )
                return
            self.break_lease(stripe)
            waited = time.monotonic() - t0
            if waited >= self.stall_s:
                from .errors import MpStallError

                pid, _exp = self.holder(stripe)
                raise MpStallError(
                    "stripe lock acquire stalled (live holder?)",
                    stripe=stripe, holder_pid=pid or None, waited_s=waited,
                )

    def _release(self, stripe: int) -> None:
        # Clear the lease *before* releasing the semaphore: a contender
        # can then never observe a stale dead pid while the lock is in
        # fact free or freshly re-held (the next holder writes its own
        # lease immediately after its acquire succeeds).
        _WORD.pack_into(self._shm.buf, self._lease_offs[stripe], 0)
        self._locks[stripe].release()

    # -- lease breaking / stripe repair --------------------------------
    def break_lease(self, stripe: int) -> LeaseBreak | None:
        """Repair ``stripe`` if its holder is dead with an expired lease.

        Returns the :class:`LeaseBreak` performed, or None when the
        stripe needed no repair (free, live holder, lease not yet
        expired, or another process repaired it first).  Safe to call
        from any process at any time: the verdict is re-checked under
        the repair lock, so concurrent breakers cannot double-release.
        """
        pid, expiry = self.holder(stripe)
        if pid == 0 or time.monotonic_ns() < expiry or pid_alive(pid):
            return None
        if not self._acquire_repair():
            return None
        try:
            pid, expiry = self.holder(stripe)  # re-check under the guard
            if pid == 0 or time.monotonic_ns() < expiry or pid_alive(pid):
                return None
            suspects = self._repair_stripe_seqs(stripe)
            _WORD.pack_into(self._shm.buf, self._lease_off(stripe), 0)
            off = self._admin_base
            count = _WORD.unpack_from(self._shm.buf, off)[0]
            _WORD.pack_into(self._shm.buf, off, (count + 1) & _U64_MASK)
            try:
                self._locks[stripe].release()
            except ValueError:
                pass  # narrow race: holder died between clear and release
            rec = LeaseBreak(stripe, pid, suspects)
            self.repair_log.append(rec)
            self.suspect_words.update(suspects)
            return rec
        finally:
            self._release_repair()

    def _repair_stripe_seqs(self, stripe: int) -> tuple[int, ...]:
        """Re-even every odd shadow sequence word in the stripe.

        A holder killed mid-``store`` leaves its word's sequence odd
        forever; readers would spin.  The word's *data* may hold either
        the old or the new value — mark it suspect, bump the sequence to
        the next even value, and let the duplicate-aware accounting
        absorb whichever write landed.
        """
        buf = self._shm.buf
        suspects: list[int] = []
        for w in range(stripe, self.nwords, len(self._locks)):
            soff = self._seq_base + w * WORD_BYTES
            seq = _WORD.unpack_from(buf, soff)[0]
            if seq & 1:
                _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
                suspects.append(w)
        return tuple(suspects)

    def break_dead_leases(self) -> list[LeaseBreak]:
        """Sweep every stripe, breaking all dead-holder leases.

        The supervisor calls this the moment it observes a PE process
        die, so survivors recover in one sweep instead of each paying a
        lease-expiry wait on first contact.
        """
        out = []
        for s in range(len(self._locks)):
            rec = self.break_lease(s)
            if rec is not None:
                out.append(rec)
        return out

    def repairs_total(self) -> int:
        """Global count of lease breaks performed on this segment."""
        return _WORD.unpack_from(self._shm.buf, self._admin_base)[0]

    def _acquire_repair(self) -> bool:
        """Take the repair lock, itself lease-protected.

        Returns False if the repair lock cannot be obtained and its
        holder looks alive (someone else is repairing — let them).
        """
        off = self._admin_base + WORD_BYTES
        deadline = time.monotonic() + self.stall_s
        while not self._repair_lock.acquire(timeout=_ACQUIRE_SLICE_S):
            pid, expiry = _PAIR.unpack_from(self._shm.buf, off)
            if pid and time.monotonic_ns() >= expiry and not pid_alive(pid):
                # The previous repairer died mid-repair.  Forced release
                # races are acceptable here: repairs are rare, idempotent
                # re-checked operations.
                _WORD.pack_into(self._shm.buf, off, 0)
                try:
                    self._repair_lock.release()
                except ValueError:
                    pass
                continue
            if time.monotonic() >= deadline:
                return False
        _PAIR.pack_into(
            self._shm.buf, off, os.getpid(),
            time.monotonic_ns() + self._lease_ns,
        )
        return True

    def _release_repair(self) -> None:
        _WORD.pack_into(self._shm.buf, self._admin_base + WORD_BYTES, 0)
        self._repair_lock.release()

    # -- fault hook ----------------------------------------------------
    def die_holding(self, index: int, make_seq_odd: bool = True) -> None:
        """Fail-stop THIS process while holding ``index``'s stripe lock.

        The lease tests' worst case: the stripe lease is held, and (with ``make_seq_odd``) the word's shadow sequence is
        left odd as if the holder died mid-``store`` — exactly the state
        :meth:`break_lease` must repair.  Never returns.
        """
        import signal

        off = self._check(index)
        stripe = self._stripe(index)
        self._acquire(stripe)
        if make_seq_odd:
            soff = self._seq_base + off
            seq = _WORD.unpack_from(self._shm.buf, soff)[0]
            _WORD.pack_into(self._shm.buf, soff, (seq + 1) & _U64_MASK)
        os.kill(os.getpid(), signal.SIGKILL)

    # -- the atomic API ------------------------------------------------
    def _check(self, index: int) -> int:
        if not 0 <= index < self.nwords:
            raise IndexError(f"word {index} out of range [0, {self.nwords})")
        return index * WORD_BYTES

    def load(self, index: int) -> int:
        """Atomic read of word ``index``."""
        off = self._check(index)
        s = self._stripe(index)
        self._acquire(s)
        try:
            return _WORD.unpack_from(self._shm.buf, off)[0]
        finally:
            self._release(s)

    def store(self, index: int, value: int) -> None:
        """Atomic write of word ``index``."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._shm.buf
        s = self._stripe(index)
        self._acquire(s)
        try:
            seq = _WORD.unpack_from(buf, soff)[0]
            _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
            _WORD.pack_into(buf, off, value & _U64_MASK)
            _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
        finally:
            self._release(s)

    def swap(self, index: int, value: int) -> int:
        """Atomic swap; returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._shm.buf
        s = self._stripe(index)
        self._acquire(s)
        try:
            old = _WORD.unpack_from(buf, off)[0]
            seq = _WORD.unpack_from(buf, soff)[0]
            _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
            _WORD.pack_into(buf, off, value & _U64_MASK)
            _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            self._release(s)

    def fetch_add(self, index: int, delta: int) -> int:
        """Atomic fetch-and-add (wraps mod 2^64); returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._shm.buf
        s = self._stripe(index)
        self._acquire(s)
        try:
            old = _WORD.unpack_from(buf, off)[0]
            seq = _WORD.unpack_from(buf, soff)[0]
            _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
            _WORD.pack_into(buf, off, (old + delta) & _U64_MASK)
            _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            self._release(s)

    def compare_swap(self, index: int, expected: int, desired: int) -> int:
        """Atomic compare-and-swap; returns the old value."""
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._shm.buf
        s = self._stripe(index)
        self._acquire(s)
        try:
            old = _WORD.unpack_from(buf, off)[0]
            if old == (expected & _U64_MASK):
                seq = _WORD.unpack_from(buf, soff)[0]
                _WORD.pack_into(buf, soff, (seq + 1) & _U64_MASK)
                _WORD.pack_into(buf, off, desired & _U64_MASK)
                _WORD.pack_into(buf, soff, (seq + 2) & _U64_MASK)
            return old
        finally:
            self._release(s)

    # -- lock-free data plane ------------------------------------------
    def load_seq(self, index: int) -> int:
        """Lock-free read of word ``index`` via its sequence word.

        Single-writer seqlock read protocol: sample the shadow sequence
        word, read the data word, re-sample the sequence; an even and
        unchanged sequence means no locked writer touched the word
        mid-read, so the value is consistent.  Retries (with a CPU yield
        every ``_SEQ_READ_SPINS`` attempts) until a clean sample lands.

        This is the owner-local / polling fast path: no stripe lock, no
        cross-process contention.  Writers pay two extra packs per
        mutation to fund it.

        Crash tolerance: a writer killed mid-critical-section leaves
        the sequence odd forever; after ``_SEQ_REPAIR_SPINS`` fruitless
        spins the reader inspects the stripe lease and breaks it if the
        holder is dead (re-evening the sequence), so readers recover
        instead of spinning on a corpse.  A *live* writer that never
        finishes raises :class:`~repro.mp.errors.MpStallError` after
        ``stall_s``.
        """
        off = self._check(index)
        soff = self._seq_base + off
        buf = self._shm.buf
        spins = 0
        total = 0
        t0 = None
        while True:
            s0 = _WORD.unpack_from(buf, soff)[0]
            if not s0 & 1:
                value = _WORD.unpack_from(buf, off)[0]
                if _WORD.unpack_from(buf, soff)[0] == s0:
                    return value
            spins += 1
            total += 1
            if spins >= _SEQ_READ_SPINS:
                time.sleep(0)
                spins = 0
            if total % _SEQ_REPAIR_SPINS == 0:
                now = time.monotonic()
                if t0 is None:
                    t0 = now
                self.break_lease(self._stripe(index))
                if now - t0 >= self.stall_s:
                    from .errors import MpStallError

                    pid, _exp = self.holder(self._stripe(index))
                    raise MpStallError(
                        f"seqlock read of word {index} stuck on odd "
                        f"sequence (live writer?)",
                        stripe=self._stripe(index), holder_pid=pid or None,
                        waited_s=now - t0,
                    )

    def read_block(self, start: int, count: int) -> bytes:
        """One contiguous lock-free copy of ``count`` words as bytes.

        Contract: the caller holds an *exclusive claim* on
        ``[start, start + count)`` — e.g. a thief that has already won
        the range via ``fetch_add`` on the control word — so no writer
        can race the copy.  No locks, no sequence words: one
        ``bytes(memoryview)`` slice out of the segment.
        """
        if count <= 0:
            return b""
        self._check(start)
        self._check(start + count - 1)
        off = start * WORD_BYTES
        return bytes(self._shm.buf[off : off + count * WORD_BYTES])

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
        self._shm.buf[off : off + nbytes] = data

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Detach this process's mapping."""
        try:
            self._shm.close()
        except BufferError:
            pass  # exported memoryviews still alive; mapping dies with us

    def unlink(self) -> None:
        """Destroy the segment (creator only, after every child exited).

        Idempotent, and tolerant of a segment that already vanished —
        abnormal-exit teardown paths may race an OS cleanup.
        """
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

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
    """One shared word: ``load`` / ``store`` / ``swap`` / ``fetch_add`` /
    ``compare_swap``, and the lock-free ``load_seq``."""

    __slots__ = ("_words", "_index", "_buf", "_off", "_soff")

    def __init__(self, words: ShmWords, index: int) -> None:
        self._words = words
        self._index = index
        # The segment's own view (no new export: ``close`` still works)
        # and the word's offsets, for the one-frame ``load_seq``.
        self._buf = words._shm.buf
        self._off = index * WORD_BYTES
        self._soff = words._seq_base + self._off

    def load(self) -> int:
        return self._words.load(self._index)

    def load_seq(self) -> int:
        """Lock-free seqlock read (see :meth:`ShmWords.load_seq`).

        One clean ``seq / data / seq`` sample inline; a sample that meets
        a writer falls back to the full retry loop, with its spin, yield,
        lease repair and stall diagnostic.
        """
        buf, soff = self._buf, self._soff
        s0 = _unpack_word(buf, soff)[0]
        if not s0 & 1:
            value = _unpack_word(buf, self._off)[0]
            if _unpack_word(buf, soff)[0] == s0:
                return value
        return self._words.load_seq(self._index)

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
        return WordRef(self._words, self._start + index)

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
