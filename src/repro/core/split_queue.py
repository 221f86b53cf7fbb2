"""The Scioto split queue every steal protocol shares (paper §3).

Each PE owns a circular buffer of fixed-size task records addressed by
monotonically increasing absolute indices (slot = ``index % qsize``)::

    reclaim_tail ........ split ........ head
         |  shared portion  |  local portion |

The *local* portion ``[split, head)`` belongs to the owner alone: it
pushes and pops at ``head`` with no communication.  The *shared* portion
below ``split`` is what thieves take from; space behind it comes back in
claim order once the thief's copy is known to be finished, which moves
``reclaim_tail``.  ``release`` moves half of the local portion across
the split, ``acquire`` moves half of the unclaimed shared tasks back.

The protocols (SDC, SWS, the Figure-3 SWS variant, the fence-free
multiplicity deque) differ only in the *metadata* that advertises the
shared portion and in the *claim sequence* a thief runs against it —
Figure 2's six communications against three.  This module holds the
rest, once, together with the contract the runtime drives every queue
through:

===================  ================================================
``push(tasks)``      append :class:`Task` objects on top of the local portion
``pop()``            pop the newest local task (there must be one)
``enqueue_many()``   ``push`` for records (what crosses a PE boundary)
``dequeue()``        ``pop`` as a record; ``None`` when local is empty
``room(pending)``    free slots beyond ``pending``; raises on overflow
``local_count``      tasks only the owner can reach
``stealable``        unclaimed tasks advertised to thieves
``release()``        generator; returns the number of tasks exposed
``acquire()``        generator; returns the number taken back
``progress()``       reclaim finished steals; returns slots freed
``steal(victim)``    generator; returns a :class:`StealResult`
``probe(victim)``    optional: a request yielding the raw metadata word
                     (steal damping; ``codec.has_work`` reads it)
``dup_handouts``     duplicate handouts so far (0 unless at-least-once)
===================  ================================================

The local portion is a list of tasks that ``head`` counts: a task
becomes a record only when ``release`` writes it into its slot, before
it publishes the new split, and ``acquire`` parses the records it takes
back (unless :attr:`SplitQueue.write_through` writes each one at push).

``release`` and ``acquire`` are generators for every protocol, so a
caller writes ``yield from`` without asking which queue it holds; one
that is purely local simply never yields.

A protocol module defines its metadata layout (a
:class:`SplitQueueSystem` subclass allocating the words), the four
operations, and its oracle declarations; see ``docs/protocols.md`` §0.
"""

from __future__ import annotations

from typing import Generator, Sequence

from ..fabric.engine import Delay
from ..fabric.errors import FabricTimeoutError, OracleViolation, ProtocolError
from ..runtime.task import Task, make_task, parse_record
from ..shmem.api import ShmemCtx
from .config import QueueConfig
from .results import StealResult, StealStatus


class SplitQueueSystem:
    """Allocates the symmetric regions for every PE's queue.

    Subclasses name their handle class in ``queue_class`` and allocate
    the protocol's metadata (and completion) words in
    :meth:`_alloc_meta`; the task buffer is the same for all of them.
    """

    queue_class: type["SplitQueue"]

    def __init__(self, ctx: ShmemCtx, config: QueueConfig | None = None) -> None:
        self.ctx = ctx
        self.config = cfg = config or QueueConfig()
        #: victim -> the one ``EMPTY`` result every failed attempt on it
        #: returns (shared by all handles: nothing mutates a result).
        self.empty_results = [StealResult(StealStatus.EMPTY, v)
                              for v in range(ctx.npes)]
        # The thief paths' remote ops and lock-poll pause, built once per
        # pool and shared by every handle.
        nic = ctx.nic
        self.amo_swap = nic.amo_swap
        self.amo_fetch_add = nic.amo_fetch_add
        self.get_words = nic.get_words
        self.lock_pause = Delay(cfg.lock_backoff)
        self._alloc_meta(ctx.heap, cfg)
        ctx.heap.alloc_bytes(self.queue_class.task_region, cfg.qsize * cfg.task_size)

    def _alloc_meta(self, heap, cfg: QueueConfig) -> None:
        raise NotImplementedError

    def handle(self, rank: int) -> "SplitQueue":
        """Owner/thief handle bound to PE ``rank``."""
        return self.queue_class(self, rank)


class SplitQueue:
    """Per-PE handle: the owner's buffer plus what every thief path shares.

    The split point itself is the subclass's: the stealval queues keep it
    as a plain ``split`` attribute (thieves never read it), SDC and the
    fence-free deque keep it in symmetric memory (thieves do) and
    override the members that read it: :attr:`local_count` and
    :meth:`_indices`.
    """

    #: Short protocol name prefixed to every oracle rule of this queue.
    tag: str
    meta_region: str
    task_region: str
    #: Completion words the oracle tracks (write journal + live view);
    #: ``None`` for a protocol with no deferred-copy completion.
    oracle_comp_region: str | None = None
    #: ``oracle_check`` reads only this PE's own heap rows and fields.
    oracle_owner_local = True
    #: ``release`` may run while unclaimed shared tasks remain (it merges
    #: them into the new allotment); otherwise the shared portion must be
    #: empty first.
    release_merges_shared = False
    #: ``push`` writes each task's record too, so the buffer holds the
    #: local portion as well (thieves that may copy above the split).
    write_through = False
    #: Stealval codec class, for the queues that advertise through one.
    codec = None
    #: Duplicate handouts charged to this queue.  Termination detection
    #: needs every execution matched by a production, so an
    #: at-least-once queue tallies each duplicate *at handout time* —
    #: before the duplicate can execute — and the owner reports
    #: ``spawned + dup_handouts``; exactly-once queues never have any.
    dup_handouts = 0

    def __init__(self, system: SplitQueueSystem, rank: int) -> None:
        self.system = system
        self.cfg = system.config
        self.pe = system.ctx.pe(rank)
        self.rank = rank
        # Owner-local bookkeeping (absolute indices; slots are idx % qsize).
        self.head = 0          # next enqueue slot
        #: The local portion ``[split, head)``, oldest first.
        self.local: list[Task] = []
        self.reclaim_tail = 0  # everything below is reusable buffer space
        # Direct heap views of the owner's own rows.  They alias the live
        # rows remote ops mutate, and reads through them skip the (pe,
        # region, bounds) checks of the generic heap API; the task-byte
        # view is also written through (byte regions carry no waiters).
        # All word *mutations* still go through ``self.pe`` so waiter
        # notification semantics are preserved.
        heap = system.ctx.heap
        self._meta = heap.word_view(rank, self.meta_region)
        if self.oracle_comp_region is not None:
            self._comp = heap.word_view(rank, self.oracle_comp_region)
        self._tasks = heap.byte_view(rank, self.task_region)
        self._qsize = self.cfg.qsize
        self._tsize = self.cfg.task_size
        # The thief paths' remote ops: a yielded ``self._amo_swap(
        # self.rank, victim, ...)`` is the NIC's request without the
        # ``Pe`` forwarding frame.
        self._amo_swap = system.amo_swap
        self._amo_fetch_add = system.amo_fetch_add
        self._get_words = system.get_words
        self.empty_results = system.empty_results
        #: The ``lock_backoff`` pause of every lock / epoch poll.
        self._lock_pause = system.lock_pause

    # ------------------------------------------------------------------
    # owner-local views
    # ------------------------------------------------------------------
    @property
    def local_count(self) -> int:
        """Tasks in the local (owner-only) portion."""
        return len(self.local)

    @property
    def in_use(self) -> int:
        """Occupied slots, including claimed-but-unreclaimed ones."""
        return self.head - self.reclaim_tail

    @property
    def free_slots(self) -> int:
        """Slots available for enqueueing."""
        return self._qsize - self.in_use

    def _slot(self, index: int) -> int:
        return index % self._qsize

    # ------------------------------------------------------------------
    # owner operations (local, no communication)
    # ------------------------------------------------------------------
    def room(self, pending: int = 0) -> int:
        """Slots free beyond ``pending`` records not yet written: at least
        one, or this raises.  Reclaims finished steals only when there is
        none — the capacity test of every enqueue."""
        room = self._qsize - pending - self.head + self.reclaim_tail
        if room <= 0:
            room += self.progress()
            if room <= 0:
                raise ProtocolError(
                    f"PE {self.rank}: {self.tag} queue overflow (qsize={self._qsize})"
                )
        return room

    def push(self, tasks: list[Task]) -> None:
        """Append tasks at the head of the local portion, the last one on
        top: one capacity test for all of them."""
        n = len(tasks)
        if n:
            self.room(n - 1)
            if self.write_through:
                self._store(self.head, tasks)
            self.local += tasks
            self.head += n

    def pop(self) -> Task:
        """Pop the newest local task (LIFO); the caller knows there is one."""
        task = self.local.pop()
        self.head -= 1
        return task

    def enqueue(self, record: bytes) -> None:
        """Append one serialized task at the head of the local portion."""
        self.enqueue_many((record,))

    def enqueue_many(self, records: Sequence[bytes]) -> None:
        """Append serialized tasks (a stolen block, a lifeline delivery)
        at the head of the local portion, the last one on top."""
        ts = self._tsize
        for record in records:
            if len(record) != ts:
                raise ProtocolError(f"record of {len(record)} bytes; queue expects {ts}")
        self.push([make_task(*parse_record(r)) for r in records])

    def dequeue(self) -> bytes | None:
        """``pop`` as a record; ``None`` when local is empty."""
        return self.pop().serialize(self._tsize) if self.local else None

    def _expose(self, nshare: int) -> None:
        """Write the bottom ``nshare`` local tasks into their slots above
        the split (unless ``push`` already did) and drop them from the
        list; the caller then publishes the new split."""
        local = self.local
        if not self.write_through:
            self._store(self.head - len(local), local[:nshare])
        del local[:nshare]

    def _withdraw(self, ntake: int) -> None:
        """Put the ``ntake`` records below the split under the list, as
        tasks; the caller then moves the split down."""
        ts, qsize, buf = self._tsize, self._qsize, self._tasks
        start = self.head - len(self.local) - ntake
        addrs = [i % qsize * ts for i in range(start, start + ntake)]
        self.local[:0] = [make_task(*parse_record(buf[a : a + ts])) for a in addrs]

    def _store(self, index: int, tasks: list[Task]) -> None:
        """Write the tasks' records from slot ``index`` on: one buffer
        store, two when the block wraps."""
        ts = self._tsize
        data = b"".join([t.serialize(ts) for t in tasks])
        buf = self._tasks
        addr = index % self._qsize * ts
        first = len(buf) - addr
        if len(data) <= first:
            buf[addr : addr + len(data)] = data
        else:
            buf[addr:] = data[:first]
            buf[: len(data) - first] = data[first:]

    # ------------------------------------------------------------------
    # thief side: everything after a won claim
    # ------------------------------------------------------------------
    def _take_claimed(
        self, victim: int, start: int, ntasks: int, comp_offset: int
    ) -> Generator:
        """Copy a claimed block, notify the victim, slice the records.

        ``start`` is the block's first buffer index (any value congruent
        to it mod ``qsize``), ``comp_offset`` the completion word that
        tells the victim this block's copy is finished.
        """
        data = yield from self._fetch_block(victim, start, ntasks)
        if data is None:
            # No completion notification: the claimed records must stay
            # pinned in the (dead) victim's buffer.
            return StealResult(StealStatus.ABANDONED, victim, ntasks)
        yield from self._notify_completion(victim, comp_offset, ntasks)
        ts = self._tsize
        records = [data[i * ts : (i + 1) * ts] for i in range(ntasks)]
        return StealResult(StealStatus.STOLEN, victim, ntasks, records)

    def _fetch_block(self, victim: int, start: int, ntasks: int) -> Generator:
        """Blocking copy of ``ntasks`` records (two gets when it wraps).

        The claim already happened, so under fault injection a timed-out
        get is retried rather than surfaced: giving up here would leak
        claimed tasks.  Only when the victim's memory is truly gone
        (``steal_fetch_retries`` exhausted — it fail-stopped) is the
        block abandoned, which returns ``None``.
        """
        pe = self.pe
        region = self.task_region
        ts = self._tsize
        slot = start % self._qsize
        first = self._qsize - slot
        for _attempt in range(self.cfg.steal_fetch_retries + 1):
            try:
                if ntasks <= first:
                    data = yield pe.get_bytes(victim, region, slot * ts, ntasks * ts)
                    return data
                part1 = yield pe.get_bytes(victim, region, slot * ts, first * ts)
                part2 = yield pe.get_bytes(victim, region, 0, (ntasks - first) * ts)
                return part1 + part2
            except FabricTimeoutError:
                continue
        return None

    def _notify_completion(self, victim: int, offset: int, ntasks: int) -> Generator:
        """Deliver the completion count into the victim's completion words.

        Reliable fabric: the paper's passive non-blocking atomic.  Fault
        mode: the victim reclaims space (and, for SWS, turns epochs over)
        strictly in claim order, so one dropped non-blocking add would
        pin every later steal's slots forever — use an acked fetch-add
        instead, retried on timeout ("timed out implies never applied"
        keeps the count exact).  Exhausting the retries means the victim
        fail-stopped; its queue dies with it.
        """
        region = self.oracle_comp_region
        if self.system.ctx.faults is None:
            yield self.pe.atomic_add_nb(victim, region, offset, ntasks)
            return
        for _attempt in range(self.cfg.steal_fetch_retries + 1):
            try:
                yield self.pe.atomic_fetch_add(victim, region, offset, ntasks)
                return
            except FabricTimeoutError:
                continue

    # ------------------------------------------------------------------
    # validation shared by ``oracle_check`` and ``invariants``
    # ------------------------------------------------------------------
    #: Names of the values :meth:`_indices` returns, for diagnostics.
    index_names: tuple[str, ...] = ("reclaim", "split", "head")

    def _indices(self) -> tuple[int, ...]:
        """Buffer indices that must be non-decreasing, reclaim point
        first and ``head`` last."""
        return self.reclaim_tail, self.split, self.head

    def _violation(self, rule: str, detail: str) -> OracleViolation:
        return OracleViolation(f"{self.tag}-{rule}", detail, pe=self.rank)

    def _broken(self, rule: str, detail: str) -> ProtocolError:
        return ProtocolError(f"PE {self.rank}: {rule} violated ({detail})")

    def _check_indices(self, error) -> None:
        """Index order and capacity; holds at every event boundary.

        ``error(rule, detail)`` builds the exception to raise:
        :meth:`_violation` for the per-event oracle, :meth:`_broken` for
        the end-of-run :meth:`invariants`.
        """
        indices = self._indices()
        prev = indices[0]
        for value in indices:
            if value < prev:
                raise error("index-order", " ".join(
                    f"{n}={v}" for n, v in zip(self.index_names, indices)
                ))
            prev = value
        if prev - indices[0] > self._qsize:
            raise error(
                "capacity", f"in_use={prev - indices[0]} > qsize={self._qsize}"
            )

    def invariants(self) -> None:
        """Raise :class:`ProtocolError` on inconsistent owner state."""
        self._check_indices(self._broken)
