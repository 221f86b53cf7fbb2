"""Backend-agnostic SWS / SDC / ff-mult shim protocol cores.

The stealval claim protocol validated under real threads and under real
OS processes is *the same algorithm over the same words*: both
real-time substrates bind these cores to shared-memory words once, in
:mod:`repro.mp.queue` — threads race an owner on a heap of their own
process, processes race it across address spaces.  This module holds
the substrate-independent halves:

* :class:`SwsShimCore` — the owner's release / acquire / close / reopen
  / settle bookkeeping and the epoch-array completion discipline;
* :func:`sws_steal_once` — the thief's 3-step fused discover+claim
  (one ``fetch_add``, local schedule arithmetic, completion signal);
* :class:`TailSplitShimCore` — the owner of a ``[tail, split)`` shared
  section, which the next two run under a lock and bare;
* :class:`SdcShimCore` / :func:`sdc_steal_once` — the lock-based SDC
  baseline (spinlock, read metadata, advance tail, unlock);
* :class:`FfMultShimCore` / :func:`ffmult_steal_once` — the fence-free
  multiplicity deque (plain reads + a plain tail store, no atomic RMW on
  the steal path; racing thieves may duplicate a task, never lose one).

Every thief attempt, whatever the protocol, returns one
:class:`ShimStealResult`.

A substrate plugs in by providing word objects exposing atomic
``load`` / ``store`` / ``swap`` / ``fetch_add`` (and ``compare_swap``
for SDC's spinlock) plus a ``_read_tasks(start, count)`` accessor for
its task buffer.  The stealval encode/decode is
:class:`repro.core.stealval.StealValEpoch` — reused, never copied.

Three small helpers also live here because both real-time substrates
need them:

* :class:`RecordCodec` — fixed-width packing of task records to/from
  little-endian 64-bit words, so a bulk steal copy is one contiguous
  byte slice instead of per-word atomic loads;
* :class:`Backoff` — adaptive spin → yield → exponential-sleep waiter
  for polling loops (idle workers, completion waits), replacing
  fixed-interval sleeps that either burn CPU or add latency;
* :func:`race` — the owner/thief race harness both hammers run, so a
  new protocol needs a queue class and no harness of its own;
  :func:`hammer` is its thread-thief form.
"""

from __future__ import annotations

import struct
import threading
import time
from dataclasses import dataclass, field

from ..capabilities import check
from ..core.steal_half import schedule
from ..core.stealval import StealValEpoch, owner_remainder, thief_claim


class RecordCodec:
    """Fixed-width task-record codec for bulk data-plane copies.

    A task record is ``words_per_task`` unsigned little-endian 64-bit
    words.  Encoding a batch produces one ``bytes`` blob suitable for a
    single ``write_block``; decoding the blob a ``read_block`` returned
    recovers the records without touching the atomic word API.  Single
    -word tasks decode to plain ints (matching what per-word ``load``
    would have produced); wider tasks decode to tuples.
    """

    __slots__ = ("words_per_task", "record_bytes", "_struct")

    def __init__(self, words_per_task: int = 1) -> None:
        if words_per_task <= 0:
            raise ValueError(
                f"words_per_task must be positive, got {words_per_task}"
            )
        self.words_per_task = words_per_task
        self._struct = struct.Struct(f"<{words_per_task}Q")
        self.record_bytes = self._struct.size

    def encode(self, tasks) -> bytes:
        """Pack a batch of records into one contiguous blob."""
        if self.words_per_task == 1:
            return struct.pack(f"<{len(tasks)}Q", *tasks)
        return b"".join(self._struct.pack(*t) for t in tasks)

    def decode(self, data: bytes) -> list:
        """Unpack a blob back into records (ints or tuples)."""
        if self.words_per_task == 1:
            return list(struct.unpack(f"<{len(data) // 8}Q", data))
        return [t for t in self._struct.iter_unpack(data)]


class StallTimeout(RuntimeError):
    """A bounded wait ran out of wall clock without observing progress.

    The base class for every "this would have spun forever" diagnostic;
    the mp substrate refines it as :class:`repro.mp.errors.MpStallError`
    with stripe / rank context.
    """


class Backoff:
    """Adaptive spin → yield → exponential-sleep waiter.

    The first ``spins`` calls to :meth:`wait` return immediately (pure
    spin — right when the awaited writer is mid-critical-section on
    another core); the next ``yields`` calls release the GIL/CPU with
    ``time.sleep(0)``; after that each call sleeps, doubling from
    ``sleep_s`` up to ``max_sleep_s``.  Call :meth:`reset` whenever
    progress is observed so a busy phase snaps back to spinning.

    With ``deadline_s`` set, a single no-progress stretch (wall time
    since the last :meth:`reset`) longer than the deadline raises
    :class:`StallTimeout`.  Polling loops must never be able to spin
    forever silently.
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

    def wait(self) -> None:
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
        delay = self.sleep_s * (1 << min(n - self.yields, 12))
        time.sleep(delay if delay < self.max_sleep_s else self.max_sleep_s)


def race(queue, nthieves: int, chunk: int, acquires: int, *,
         pace_s: float = 2e-5, on_claim=None) -> tuple[list[list], list]:
    """Race one owner against ``nthieves`` thief threads.

    The owner (the calling thread) publishes ``queue``'s buffer in
    chunks — ``release``, a short pause for claims to land, an
    occasional ``acquire`` — then ``drain``s, while the thieves race
    ``steal`` against it under genuine preemption.  ``queue`` is any
    shim core (``cursor`` / ``nfilled`` / ``release`` / ``acquire`` /
    ``drain`` / ``steal``).

    ``on_claim(idx, result)`` runs in thief ``idx`` on every winning
    steal.  With ``nthieves=0`` only the owner side runs (the mp
    hammer's thieves are processes).  Returns ``(per-thief loot, tasks
    the owner kept)``.
    """
    loot: list[list] = [[] for _ in range(nthieves)]
    stop = threading.Event()

    def thief(idx: int) -> None:
        while not stop.is_set():
            res = queue.steal()
            if res.claimed:
                if on_claim is not None:
                    on_claim(idx, res)
                loot[idx].extend(res.claimed)
            else:
                time.sleep(1e-6)

    threads = [
        threading.Thread(target=thief, args=(i,), daemon=True)
        for i in range(nthieves)
    ]
    for t in threads:
        t.start()
    try:
        done_acquires = 0
        while queue.cursor < queue.nfilled:
            queue.release(chunk)
            time.sleep(pace_s)
            if done_acquires < acquires:
                queue.acquire()
                done_acquires += 1
        queue.drain()
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
    return loot, queue.owner_kept


def hammer(
    tasks: list[int],
    nthieves: int = 4,
    releases: int = 8,
    acquires: int = 3,
    impl: str = "sws",
) -> tuple[list[list[int]], list[int]]:
    """Race harness: one owner, N thief *threads* (the process-thief
    form is :func:`repro.mp.queue.hammer_mp`, same arguments).

    The queue is ``impl``'s shared-memory layout on a heap of this
    process only.  Returns ``(per-thief loot, owner-kept tasks)``: for
    the exactly-once protocols their disjoint union equals ``tasks``,
    for ``ff-mult`` it covers them.
    """
    # Imported here: the layouts are bound to the cores of this module.
    from ..mp.queue import in_process_queue

    check(impl, "threads", ("race",), nthieves + 1)
    with in_process_queue(impl, tasks) as queue:
        return race(queue, nthieves, max(1, len(tasks) // releases),
                    acquires)


@dataclass
class ShimStealResult:
    """One thief attempt's outcome, for every shim protocol and substrate.

    ``claimed`` is empty exactly when the attempt got nothing.  The rest
    says why, or how: ``empty`` (no shared work), ``aborted_locked`` and
    ``view`` (SWS: the owner held the stealval locked; the decoded word
    the claiming fetch-add observed — the damping state machine of paper
    §4.3 feeds on it), ``lock_spins`` (SDC: spins spent on the queue
    lock), ``index`` (ff-mult: the absolute buffer index consumed, ``-1``
    when none — the mutation/property suites key duplicate multiplicity
    on it).
    """

    claimed: list = field(default_factory=list)
    empty: bool = False
    aborted_locked: bool = False
    view: object = None
    lock_spins: int = 0
    index: int = -1


def sws_steal_once(stealval, comp, comp_slots: int,
                   read_tasks) -> ShimStealResult:
    """One claiming attempt — exactly the simulator's 3-step protocol.

    ``stealval`` is an atomic word, ``comp`` an indexable of atomic
    words (the per-epoch completion array), ``read_tasks(start, count)``
    the substrate's task-buffer accessor.  The single ``fetch_add``
    both discovers and claims; everything after it is local arithmetic
    plus the completion signal.
    """
    old = stealval.fetch_add(StealValEpoch.ASTEAL_UNIT)
    view = StealValEpoch.unpack(old)
    if view.locked:
        return ShimStealResult(aborted_locked=True, view=view)
    vol, disp = thief_claim(view.itasks, view.asteals)
    if vol == 0:
        return ShimStealResult(empty=True, view=view)
    # The tail field stores start % 2^19; shim buffers stay smaller
    # than that, so the raw value is the buffer index.
    claimed = read_tasks(view.tail + disp, vol)
    comp[view.epoch * comp_slots + view.asteals].fetch_add(vol)
    return ShimStealResult(claimed=claimed, view=view)


class SwsShimCore:
    """Owner-side SWS shim state over any atomic-word substrate.

    Subclasses provide ``self.stealval`` (atomic word), ``self.comp``
    (atomic word array of ``max_epochs * comp_slots``), ``self.nfilled``
    (tasks written to the buffer so far) and :meth:`_read_tasks` before
    calling :meth:`_init_protocol`.
    """

    #: Cap on the adaptive backoff's sleep while waiting on in-flight
    #: completions (the historical fixed poll interval).
    POLL_S = 1e-5

    #: Hard wall-clock deadline for one no-progress completion wait,
    #: past which it raises :class:`StallTimeout`.  ``None`` (the
    #: default, and the threads backend's setting) keeps the historical
    #: unbounded wait; the mp hammer sets it so a claim a wedged thief
    #: never completes fails the run instead of hanging the owner.
    stall_s: float | None = None

    def _settle_backoff(self) -> Backoff:
        return Backoff(sleep_s=self.POLL_S / 4, max_sleep_s=self.POLL_S,
                       deadline_s=self.stall_s)

    def _init_protocol(self, max_epochs: int, comp_slots: int) -> None:
        self.max_epochs = max_epochs
        self.comp_slots = comp_slots
        self.epoch = 0
        # Owner bookkeeping: [start, start+itasks) is the live allotment.
        self._records: list[dict] = [
            {"epoch": 0, "start": 0, "itasks": 0, "claims": 0}
        ]
        self.cursor = 0                      # next unshared buffer index
        self.owner_kept: list = []           # tasks re-acquired by the owner
        self.stealval.store(StealValEpoch.pack(0, 0, 0, 0))

    def _read_tasks(self, start: int, count: int) -> list:
        raise NotImplementedError

    def _keep(self, start: int, count: int) -> None:
        if count:
            self.owner_kept.extend(self._read_tasks(start, count))

    # -- owner ---------------------------------------------------------
    def release(self, count: int) -> None:
        """Publish the next ``count`` buffer tasks as a new allotment.

        Unlike the simulator's split queue — where the unclaimed
        remainder stays physically contiguous with newly exposed tasks —
        this flat-buffer shim cannot re-share a remainder across the hole
        an ``acquire`` leaves, so any unclaimed remainder is absorbed by
        the owner first (acquire-all-then-release).  The claim/lock/
        completion races being validated are unaffected.
        """
        rem_start, rem = self._close()
        self._keep(rem_start, rem)
        count = min(count, self.nfilled - self.cursor)
        start = self.cursor
        self.cursor += count
        self._reopen(start, count)

    def acquire(self) -> list:
        """Lock, pull back half the unclaimed remainder, re-publish."""
        rem_start, rem = self._close()
        ntake = (rem + 1) // 2
        taken = self._read_tasks(rem_start + (rem - ntake), ntake) if ntake else []
        self.owner_kept.extend(taken)
        self._reopen(rem_start, rem - ntake)
        return taken

    def _close(self) -> tuple[int, int]:
        old = self.stealval.swap(StealValEpoch.locked_word())
        view = StealValEpoch.unpack(old)
        rec = self._records[-1]
        assert view.epoch == rec["epoch"] and view.itasks == rec["itasks"]
        rec["claims"], disp, rem = owner_remainder(view.itasks, view.asteals)
        return rec["start"] + disp, rem

    def _reopen(self, start: int, itasks: int) -> None:
        next_epoch = (self.epoch + 1) % self.max_epochs
        # Wait until the epoch's previous record fully completed, then
        # prune settled records and zero the epoch's completion row.
        backoff = self._settle_backoff()
        while any(
            r["epoch"] == next_epoch and not self._settled(r)
            for r in self._records
        ):
            backoff.wait()
        self._records = [r for r in self._records if not self._settled(r)]
        base = next_epoch * self.comp_slots
        for i in range(self.comp_slots):
            self.comp[base + i].store(0)
        self.epoch = next_epoch
        self._records.append({"epoch": next_epoch, "start": start, "itasks": itasks})
        self.stealval.store(StealValEpoch.pack(0, next_epoch, itasks, start % (1 << 19)))

    def _settled(self, rec: dict) -> bool:
        claims = rec.get("claims")
        if claims is None:
            return False
        vols = schedule(rec["itasks"])
        base = rec["epoch"] * self.comp_slots
        return all(self.comp[base + i].load() == vols[i] for i in range(claims))

    def drain(self) -> None:
        """Wait for every claimed steal to complete, absorb the rest.

        Leaves the stealval locked: post-drain claim attempts abort.
        """
        rem_start, rem = self._close()
        self._keep(rem_start, rem)
        backoff = self._settle_backoff()
        while not all(self._settled(r) for r in self._records):
            backoff.wait()
        self._keep(self.cursor, self.nfilled - self.cursor)
        self.cursor = self.nfilled

    def take_kept(self) -> list:
        """Hand back (and clear) the owner-reabsorbed tasks."""
        kept, self.owner_kept = self.owner_kept, []
        return kept

    # -- thief ---------------------------------------------------------
    def steal(self) -> ShimStealResult:
        """One claiming attempt against this queue's own words."""
        return sws_steal_once(
            self.stealval, self.comp, self.comp_slots, self._read_tasks
        )


# ======================================================================
# The [tail, split) shared section SDC and ff-mult both publish through
# ======================================================================

class TailSplitShimCore:
    """Owner side of a ``[tail, split)`` shared section over any word
    substrate — the part SDC and the fence-free deque have in common.

    Subclasses provide ``self.tail`` / ``self.split`` (plain-load/store
    word objects), ``self.nfilled`` and :meth:`_read_tasks` before
    calling :meth:`_init_protocol`.

    Nothing here takes a lock: before re-publishing, the owner absorbs
    the shared remainder ``[tail, split)`` into ``owner_kept`` and parks
    the tail.  Every absorb reads the range *before* moving the tail, so
    no index is ever skipped unread.  SDC runs each operation inside its
    queue lock; the fence-free deque runs them bare and lives with what
    a racing thief's stale ``tail`` store can then do (see
    :class:`FfMultShimCore`).
    """

    def _init_protocol(self) -> None:
        self.tail.store(0)
        self.split.store(0)
        self.cursor = 0
        self.owner_kept: list = []

    def _read_tasks(self, start: int, count: int) -> list:
        raise NotImplementedError

    def release(self, count: int) -> None:
        """Absorb the shared remainder (acquire-all, like the real
        protocols' empty-shared precondition), then expose the next
        ``count`` buffer tasks."""
        t, s = self.tail.load(), self.split.load()
        if s > t:
            self.owner_kept.extend(self._read_tasks(t, s - t))
        count = min(count, self.nfilled - self.cursor)
        start = self.cursor
        self.cursor += count
        # Order matters: park the tail at the new region's base *before*
        # widening the split, so a thief never observes (old tail, new
        # split) and walks through the absorbed gap.
        self.tail.store(start)
        self.split.store(start + count)

    def acquire(self) -> list:
        """Pull back half the shared section (reads before the shrink)."""
        t, s = self.tail.load(), self.split.load()
        avail = s - t
        if avail <= 0:
            return []
        ntake = (avail + 1) // 2
        taken = self._read_tasks(s - ntake, ntake)
        self.owner_kept.extend(taken)
        self.split.store(s - ntake)
        return taken

    def drain(self) -> None:
        """Absorb everything left: shared remainder, then unshared."""
        t, s = self.tail.load(), self.split.load()
        if s > t:
            self.owner_kept.extend(self._read_tasks(t, s - t))
        self.tail.store(s)
        self.owner_kept.extend(
            self._read_tasks(self.cursor, self.nfilled - self.cursor)
        )
        self.cursor = self.nfilled

    def take_kept(self) -> list:
        """Hand back (and clear) the owner-reabsorbed tasks."""
        kept, self.owner_kept = self.owner_kept, []
        return kept


# ======================================================================
# SDC: the lock-based baseline protocol
# ======================================================================

def sdc_lock(lock, token: int = 1,
             max_spins: int | None = None) -> tuple[bool, int]:
    """Spin for the SDC queue lock; returns ``(acquired, spins)``.

    ``token`` is the value CASed into the lock word (the mp substrate
    passes its pid so a stuck lock names its holder).  Without
    ``max_spins`` the spin is unbounded (the historical single-address
    -space behaviour).
    """
    spins = 0
    while lock.compare_swap(0, token) != 0:
        spins += 1
        if max_spins is not None and spins >= max_spins:
            return False, spins
        time.sleep(0)
    return True, spins


def sdc_steal_once(
    lock, tail, split, read_tasks, max_spins: int = 10_000, token: int = 1,
) -> ShimStealResult:
    """One lock-protected steal-half attempt (the six-step SDC shape);
    ``token`` is :func:`sdc_lock`'s."""
    acquired, spins = sdc_lock(lock, token, max_spins)
    res = ShimStealResult(lock_spins=spins)
    if not acquired:
        return res
    try:
        t, s = tail.load(), split.load()
        avail = s - t
        if avail <= 0:
            res.empty = True
            return res
        n = max(1, avail // 2)
        res.claimed = read_tasks(t, n)
        tail.store(t + n)
        return res
    finally:
        lock.store(0)


def _under_lock(op):
    """Run an owner operation of :class:`SdcShimCore` inside its lock."""
    def locked(self, *args):
        sdc_lock(self.lock, self.lock_token)
        try:
            return op(self, *args)
        finally:
            self.lock.store(0)
    return locked


class SdcShimCore(TailSplitShimCore):
    """Owner-side SDC shim state over any atomic-word substrate.

    The owner operations are :class:`TailSplitShimCore`'s, each run
    under the queue lock thieves also take.  Subclasses provide
    ``self.lock`` (an atomic word with ``compare_swap``) besides what the
    base asks for.
    """

    #: Lock-word token this owner CASes in (the mp substrate sets its
    #: pid so a wedged queue names its holder).
    lock_token: int = 1

    #: Lock spins before a thief attempt gives up empty-handed.
    max_spins = 10_000

    def _init_protocol(self) -> None:
        self.lock.store(0)
        super()._init_protocol()

    release = _under_lock(TailSplitShimCore.release)
    acquire = _under_lock(TailSplitShimCore.acquire)
    drain = _under_lock(TailSplitShimCore.drain)

    # -- thief ---------------------------------------------------------
    def steal(self) -> ShimStealResult:
        """One lock-protected steal-half attempt."""
        return sdc_steal_once(
            self.lock, self.tail, self.split, self._read_tasks,
            self.max_spins, token=self.lock_token,
        )


# ======================================================================
# ff-mult: the fence-free multiplicity deque
# ======================================================================

def ffmult_steal_once(tail, split, read_tasks) -> ShimStealResult:
    """One fence-free steal (Castañeda & Piña): no atomic RMW anywhere.

    Plain load of ``tail`` and ``split``, plain read of one task record,
    plain store of ``tail + 1``.  Two thieves observing the same tail
    both consume the same record and both store the same new tail — a
    legal duplicate handout.  The record is read *before* the tail store,
    so an index is never passed without someone holding its task: races
    duplicate work, they cannot lose it.
    """
    t = tail.load()
    s = split.load()
    if s - t <= 0:
        return ShimStealResult(empty=True)
    claimed = read_tasks(t, 1)
    tail.store(t + 1)
    return ShimStealResult(claimed=list(claimed), index=t)


class FfMultShimCore(TailSplitShimCore):
    """Owner-side fence-free multiplicity shim over any word substrate.

    :class:`TailSplitShimCore` run bare — the owner never takes a lock
    either.  A thief's stale ``tail`` store can land after the owner
    parked the tail and re-expose already-consumed indices — those
    re-steals are duplicates, which the at-least-once contract allows.
    """

    def steal(self) -> ShimStealResult:
        """One fence-free attempt against this queue's own words."""
        return ffmult_steal_once(self.tail, self.split, self._read_tasks)
