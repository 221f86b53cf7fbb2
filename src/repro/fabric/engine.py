"""Deterministic discrete-event engine with coroutine processes.

The engine owns a virtual clock and a calendar event queue.  Simulated
processing elements (PEs) are plain Python generators that ``yield``
*request* objects; the engine resumes a generator with the request's result
once the requested virtual time has elapsed.  Two request kinds exist at
this layer:

:class:`Delay`
    Advance the process's clock by a duration (models local computation).

:class:`Call`
    Invoke an arbitrary handler that takes over scheduling for the process
    (the NIC layer uses this to implement one-sided operations whose
    completion time depends on remote state).

A layer may also *post* a request during a step: it schedules the resume
of :attr:`Engine.active` itself, marks it waiting, and hands back
:data:`POSTED` for the process to yield, which needs no dispatch.

Virtual time is kept as an **integer tick count** (1 tick = 1 femtosecond,
:data:`TICKS_PER_SECOND` = 10**15).  Integer ticks give exact event
ordering — no accumulated float error can reorder two events — and exact
arithmetic for every latency constant in
:mod:`~repro.fabric.latency` (the finest of which, ``beta`` per byte, is a
fraction of a nanosecond).  The public API still speaks seconds
(:attr:`Engine.now`, :meth:`Engine.schedule`, :meth:`Engine.at`); tick
variants (:attr:`Engine.now_ticks`, :meth:`Engine.schedule_ticks`,
:meth:`Engine.at_ticks`) expose the native clock for hot paths such as the
NIC's serialization arithmetic.

Determinism: events at equal timestamps pop in insertion order (a
monotonically increasing sequence number breaks ties), so a given seed
always reproduces the same interleaving — a property the reproduction's
"run variation" experiments rely on.

Event queue: a bucketed :class:`CalendarQueue` keyed on integer ticks.
Events land in coarse buckets (``tick >> CalendarQueue.SHIFT``); a small
heap orders the bucket keys and each bucket is sorted once, wholesale, when
it becomes current — cheaper than a per-event binary heap because the sort
is a single C call over the whole bucket.  Dequeue order is **bit-identical
to heapq order** on ``(when, seq)``: equal ticks always share a bucket, the
bucket sort is total on the unique ``(when, seq)`` prefix, and insertions
into the current bucket binary-insert at their sorted position.  Scheduling
methods return an opaque *event handle* accepted by :meth:`Engine.cancel`;
cancellation is lazy (the entry is tombstoned in place and skipped at
dequeue), with periodic compaction when tombstones outnumber live events.

Schedule exploration: attaching a
:class:`~repro.fabric.scheduler.Scheduler` replaces the insertion-order
tie-break with a pluggable policy.  The engine then collects every event
sharing the minimal timestamp into a *ready set* and lets the policy pick
which runs next, recording the choice so any interleaving can be replayed
bit-identically.  With no scheduler attached the original fast path runs
unchanged.  ``observers`` are invoked after every executed event — the
oracle layer uses them to check cross-PE invariants at each step.

Performance: :meth:`Engine.run` dispatches to one of two loops chosen
once, up front — a bare fast path (no scheduler, no observers) and one
instrumented loop (observers, optionally a scheduler).  The fast path
walks the current bucket with everything hot held in locals; it performs
**zero** per-event instrumentation work
(:attr:`Engine.instrumented_events` stays 0).
Attach schedulers/observers *before* calling :meth:`run`; attachments made
mid-run by an event are not picked up until the next :meth:`run` call.
"""

from __future__ import annotations

from bisect import insort
from functools import partial
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from .errors import DeadlockError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .scheduler import Scheduler

#: Type of a simulated process body.
ProcessGen = Generator[Any, Any, Any]

#: An event-queue entry: a mutable ``[when_ticks, seq, fn, actor]`` list.
#: ``(when, seq)`` is globally unique, so list comparison never reaches
#: the (uncomparable) callback.  Scheduling methods return the entry as a
#: cancellation handle; ``fn is None`` marks it cancelled or consumed.
EventHandle = list

#: Virtual-clock resolution: one tick is one femtosecond.  Fine enough
#: that every latency constant (including per-byte ``beta`` at 12 GB/s,
#: ~0.083 ns/byte) is an exact integer number of ticks.
TICKS_PER_SECOND = 10**15

#: Cumulative events executed by *all* engines in this process.  The
#: sweep runner reads this around a run to report events/sec without
#: needing a handle on the engine buried inside an experiment.
_event_tally = 0


def to_ticks(seconds: float) -> int:
    """Convert seconds to integer femtosecond ticks (round to nearest)."""
    return round(seconds * TICKS_PER_SECOND)


def to_seconds(ticks: int) -> float:
    """Convert integer ticks back to float seconds (correctly rounded)."""
    return ticks / TICKS_PER_SECOND


def events_tally() -> int:
    """Total events executed process-wide since import (or last reset)."""
    return _event_tally


def reset_event_tally() -> None:
    """Zero the process-wide event tally (sweep runner bookkeeping)."""
    global _event_tally
    _event_tally = 0


class CalendarQueue:
    """Bucketed event queue with heapq-identical dequeue order.

    Entries are ``[when_ticks, seq, fn, actor]`` lists bucketed by
    ``when_ticks >> SHIFT``.  A heap of bucket keys yields buckets in
    time order; the *current* bucket is sorted wholesale on promotion and
    walked by cursor.  Three facts make dequeue order bit-identical to a
    ``(when, seq)`` binary heap:

    * equal ticks share a bucket (same key), so a tie never spans buckets;
    * the promotion sort is total on the unique ``(when, seq)`` prefix;
    * an insertion into the current bucket binary-inserts at its sorted
      position at-or-after the cursor (new events carry a fresh ``seq``
      and cannot sort before anything already consumed).

    Cancellation (:meth:`cancel`) is lazy: the entry's callback slot is
    nulled in place and the dequeue path skips it — no re-heapify, no
    search.  When tombstones exceed :data:`COMPACT_MIN` *and* outnumber
    live entries, a compaction sweep rebuilds the lists in place.
    """

    #: Bucket width exponent: one bucket spans ``2**SHIFT`` ticks
    #: (2**34 fs ≈ 17 µs of virtual time).  Coarse on purpose — the
    #: fabric workloads average ~1 event per distinct tick, so fine
    #: buckets pay a dict op plus a key-heap push per event for nothing;
    #: the pending set is small (hundreds), so the binary insert into a
    #: wide current bucket is cheap.  See docs/performance.md ("Event
    #: queue design") for the measured sizing sweep.
    SHIFT = 34

    #: Lazy-cancellation compaction floor: never compact below this many
    #: tombstones (a sweep is O(pending) and must stay rare).
    COMPACT_MIN = 256

    #: Consumed-prefix trim threshold: once the cursor has walked this
    #: far into the current bucket, the consumed prefix is deleted so a
    #: long-lived bucket does not retain fired events.  Amortized O(1)
    #: per event.
    TRIM = 4096

    __slots__ = ("_shift", "_buckets", "_keys", "_cur", "_cur_i",
                 "_cur_key", "_len", "_tombstones")

    def __init__(self, shift: int | None = None) -> None:
        self._shift = self.SHIFT if shift is None else shift
        #: Future buckets: key -> unsorted list of entries.
        self._buckets: dict[int, list[EventHandle]] = {}
        #: Min-heap of keys present in ``_buckets``.
        self._keys: list[int] = []
        #: Current (sorted) bucket being drained, or None.
        self._cur: list[EventHandle] | None = None
        #: Cursor: index of the next entry to dequeue from ``_cur``.
        self._cur_i = 0
        self._cur_key = -1
        self._len = 0
        self._tombstones = 0

    def __len__(self) -> int:
        return self._len

    def push(self, entry: EventHandle) -> None:
        """Insert ``entry``; ``entry[0]`` must be >= the last dequeue tick."""
        cur = self._cur
        if cur is not None and entry[0] >> self._shift == self._cur_key:
            # Active bucket: binary-insert at the sorted position.  New
            # entries carry a fresh seq, so they can never sort before the
            # cursor — searching [cur_i:] keeps the insert cheap.
            insort(cur, entry, self._cur_i)
        else:
            self._push_slow(entry)
        self._len += 1

    def _push_slow(self, entry: EventHandle) -> None:
        """Insert into a non-current bucket (the engine inlines the
        current-bucket fast path and falls back here)."""
        key = entry[0] >> self._shift
        b = self._buckets.get(key)
        if b is None:
            self._buckets[key] = [entry]
            heappush(self._keys, key)
        else:
            b.append(entry)

    def cancel(self, entry: EventHandle) -> bool:
        """Tombstone a pending entry; False if already fired/cancelled."""
        if entry[2] is None:
            return False
        entry[2] = None
        self._len -= 1
        self._tombstones += 1
        if self._tombstones > self.COMPACT_MIN and self._tombstones > self._len:
            self._compact()
        return True

    def peek(self) -> EventHandle | None:
        """Next live entry (cursor parked on it), or None when empty.

        Skips and reclaims tombstones; promotes (sorts) the next bucket
        when the current one drains.  After a non-None return the entry
        sits at ``_cur[_cur_i]`` — consuming it is ``_cur_i += 1`` plus
        nulling ``entry[2]`` and decrementing ``_len``.
        """
        while True:
            cur = self._cur
            if cur is not None:
                keys = self._keys
                if keys and keys[0] < self._cur_key:
                    # Engine.run(until=) stops with the cursor parked on
                    # the bucket of the first event past its bound; a later
                    # insert below that bucket's key range would then be
                    # hidden behind it.  Shelve the unconsumed tail and
                    # re-promote in order.
                    tail = cur[self._cur_i:]
                    if tail:
                        b = self._buckets.get(self._cur_key)
                        if b is None:
                            self._buckets[self._cur_key] = tail
                            heappush(keys, self._cur_key)
                        else:
                            b.extend(tail)
                    self._cur = None
                    continue
                i = self._cur_i
                if i >= self.TRIM:
                    del cur[:i]
                    self._cur_i = i = 0
                n = len(cur)
                while i < n:
                    e = cur[i]
                    if e[2] is not None:
                        self._cur_i = i
                        return e
                    self._tombstones -= 1
                    i += 1
                self._cur_i = i
            if self._promote() is None:
                return None

    def pop(self) -> tuple[int, int, Callable[[], None], Any] | None:
        """Dequeue the next live entry as a ``(when, seq, fn, actor)`` tuple."""
        e = self.peek()
        if e is None:
            return None
        self._cur_i += 1
        self._len -= 1
        when, seq, fn, actor = e
        e[2] = None  # consumed: a late cancel() must be a no-op
        return (when, seq, fn, actor)

    def _promote(self) -> list[EventHandle] | None:
        """Sort and install the next bucket; None when no buckets remain."""
        keys = self._keys
        if not keys:
            self._cur = None
            return None
        key = heappop(keys)
        lst = self._buckets.pop(key)
        lst.sort()
        self._cur = lst
        self._cur_i = 0
        self._cur_key = key
        return lst

    def _compact(self) -> None:
        """Sweep tombstones out of every pending list, in place.

        In-place slice assignment preserves list identity, so a compaction
        triggered *inside* a run loop (a callback cancelling timers) never
        invalidates the loop's reference to the current bucket.
        """
        cur = self._cur
        if cur is not None:
            i = self._cur_i
            live_tail = [e for e in cur[i:] if e[2] is not None]
            self._tombstones -= (len(cur) - i) - len(live_tail)
            cur[i:] = live_tail
        dead_keys = []
        for key, lst in self._buckets.items():
            live = [e for e in lst if e[2] is not None]
            if len(live) != len(lst):
                self._tombstones -= len(lst) - len(live)
                if live:
                    lst[:] = live
                else:
                    dead_keys.append(key)
        if dead_keys:
            for key in dead_keys:
                del self._buckets[key]
            self._keys = [k for k in self._keys if k in self._buckets]
            heapify(self._keys)


class Delay:
    """Request: advance virtual time by ``duration`` seconds.

    The tick conversion happens once at construction, so a Delay object
    may be cached and re-yielded (a worker keeps one per backoff
    length).  Instances render as ``delay(...)`` in deadlock reports.
    """

    __slots__ = ("duration", "ticks")

    def __init__(self, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative delay: {duration}")
        self.duration = duration
        self.ticks = round(duration * TICKS_PER_SECOND)

    def __repr__(self) -> str:
        return f"delay({self.duration:.3g}s)"


class Call:
    """Request: hand control to ``handler(engine, process, *args)``.

    The handler is responsible for eventually calling
    :meth:`Engine.resume` on the process (possibly immediately).
    Subclasses with extra state are dispatched through the same path.
    """

    __slots__ = ("handler", "args")

    def __init__(self, handler: Callable[..., None], args: tuple = ()) -> None:
        self.handler = handler
        self.args = args

    def __repr__(self) -> str:
        return f"call({getattr(self.handler, '__name__', self.handler)!r})"


#: What a process yields for a request posted during its step: the
#: issuer already scheduled the resume, so there is nothing to dispatch.
POSTED = object()


class Process:
    """A live coroutine process inside the engine."""

    __slots__ = (
        "name", "gen", "engine", "finished", "result", "waiting",
        "killed", "blocked_on", "_step0",
    )

    def __init__(self, name: str, gen: ProcessGen, engine: "Engine") -> None:
        self.name = name
        self.gen = gen
        self.engine = engine
        self.finished = False
        self.result: Any = None
        #: True while the process awaits a resume; guards double-resume bugs.
        self.waiting = False
        #: True once the process was fail-stopped by :meth:`Engine.kill`.
        self.killed = False
        #: Description of the request currently blocking this process
        #: (set by request handlers, rendered in deadlock reports; may be
        #: any object whose ``str`` describes the wait — Delay instances
        #: are stored as-is to keep the hot dispatch allocation-free).
        self.blocked_on: Any = None
        #: Cached value-less resume callback.  Delay expiry and every
        #: ``resume(value=None)`` reuse this one bound partial instead of
        #: allocating a fresh closure per event (the fig7 hot path).
        self._step0 = partial(engine._step, self, None)

    def __repr__(self) -> str:
        state = "done" if self.finished else ("waiting" if self.waiting else "ready")
        return f"<Process {self.name} {state}>"


class Engine:
    """Deterministic discrete-event simulation engine."""

    def __init__(self, scheduler: "Scheduler | None" = None) -> None:
        #: Calendar event queue; entries are ``[when_ticks, seq, fn, actor]``.
        self._q = CalendarQueue()
        self._seq = 0
        self._now = 0  # integer ticks
        self.processes: list[Process] = []
        self._live = 0
        #: Events executed so far — the simulation-cost metric.
        self.events_processed = 0
        #: Events that went through an instrumented loop (observers or
        #: scheduler attached).  Stays 0 on the bare fast path — tests
        #: assert on this to prove the fast path really ran.
        self.instrumented_events = 0
        #: Callbacks returning extra context lines for deadlock reports
        #: (the NIC registers one describing outstanding ops / waiters).
        self.diagnostics: list[Callable[[], str]] = []
        #: Same-timestamp tie-break policy; None = insertion order
        #: (the bit-identical fast path).
        self.scheduler = scheduler
        #: Callbacks invoked after every executed event (invariant
        #: oracles).  Must not mutate simulation state.
        self.observers: list[Callable[[], None]] = []
        #: The process whose step is running; None between steps.
        self.active: Process | None = None

    # ------------------------------------------------------------------
    # clock & event queue
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now / TICKS_PER_SECOND

    @property
    def now_ticks(self) -> int:
        """Current virtual time in integer ticks (1 tick = 1 fs)."""
        return self._now

    def schedule(self, delay: float, fn: Callable[[], None],
                 actor: str | None = None) -> EventHandle:
        """Run ``fn()`` ``delay`` seconds from now.

        Returns an opaque handle accepted by :meth:`cancel` (as do all
        the scheduling variants below).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        # Relative scheduling is exact integer arithmetic on the current
        # tick — immune to float round-trip loss at large virtual times.
        return self.schedule_ticks(round(delay * TICKS_PER_SECOND), fn, actor)

    def schedule_ticks(self, dticks: int, fn: Callable[[], None],
                       actor: str | None = None) -> EventHandle:
        """Run ``fn()`` ``dticks`` ticks from now (tick-native hot path)."""
        if dticks < 0:
            raise SimulationError(f"cannot schedule into the past: {dticks} ticks")
        when = self._now + dticks
        entry = [when, self._seq, fn, actor]
        self._seq += 1
        q = self._q
        cur = q._cur
        if cur is not None and when >> q._shift == q._cur_key:
            insort(cur, entry, q._cur_i)
        else:
            q._push_slow(entry)
        q._len += 1
        return entry

    def at(self, when: float, fn: Callable[[], None],
           actor: str | None = None) -> EventHandle:
        """Run ``fn()`` at absolute virtual time ``when`` seconds.

        ``actor`` names the logical owner of the event (a process or a
        NIC unit) for schedule-exploration policies that prioritize by
        actor; it never affects the default insertion-order tie-break.
        """
        ticks = round(when * TICKS_PER_SECOND)
        if ticks < self._now:
            # Tolerate sub-tick float fuzz: a caller that computed
            # ``engine.now + x`` may round a hair below the integer
            # clock; clamp to now.  Anything truly in the past raises.
            if when >= self._now / TICKS_PER_SECOND:
                ticks = self._now
            else:
                raise SimulationError(
                    f"cannot schedule at {when} before now={self.now}"
                )
        entry = [ticks, self._seq, fn, actor]
        self._seq += 1
        self._q.push(entry)
        return entry

    def at_ticks(self, when_ticks: int, fn: Callable[[], None],
                 actor: str | None = None) -> EventHandle:
        """Run ``fn()`` at absolute tick ``when_ticks`` (tick-native)."""
        if when_ticks < self._now:
            raise SimulationError(
                f"cannot schedule at tick {when_ticks} before now={self._now}"
            )
        entry = [when_ticks, self._seq, fn, actor]
        self._seq += 1
        q = self._q
        cur = q._cur
        if cur is not None and when_ticks >> q._shift == q._cur_key:
            insort(cur, entry, q._cur_i)
        else:
            q._push_slow(entry)
        q._len += 1
        return entry

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event by its scheduling handle.

        Returns True if the event was live (and is now tombstoned),
        False if it already fired or was already cancelled — cancelling
        late is always safe.  The NIC uses this to retire op-timeout
        timers the moment an operation completes, instead of letting a
        dead timer fire as a no-op event.
        """
        return self._q.cancel(handle)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------
    def spawn(self, gen: ProcessGen, name: str = "proc") -> Process:
        """Register a generator as a process; it starts when :meth:`run` does.

        The first resume is scheduled at the current virtual time, so
        processes spawned before ``run()`` all begin at t=0 in spawn order.
        """
        proc = Process(name, gen, self)
        self.processes.append(proc)
        self._live += 1
        proc.waiting = True
        self.at_ticks(self._now, proc._step0, actor=name)
        return proc

    def resume(self, proc: Process, value: Any = None, delay: float = 0.0) -> None:
        """Resume ``proc`` with ``value`` after ``delay`` seconds."""
        if proc.finished:
            if proc.killed:
                return  # stale wakeup for a fail-stopped process
            raise SimulationError(f"resume of finished process {proc.name}")
        fn = proc._step0 if value is None else partial(self._step, proc, value)
        self.schedule(delay, fn, actor=proc.name)

    def resume_ticks(self, proc: Process, value: Any, dticks: int) -> None:
        """Resume ``proc`` with ``value`` after ``dticks`` ticks."""
        if proc.finished:
            if proc.killed:
                return
            raise SimulationError(f"resume of finished process {proc.name}")
        fn = proc._step0 if value is None else partial(self._step, proc, value)
        self.schedule_ticks(dticks, fn, actor=proc.name)

    def throw(self, proc: Process, exc: BaseException, delay: float = 0.0) -> None:
        """Raise ``exc`` inside ``proc`` after ``delay`` seconds."""
        if proc.finished:
            if proc.killed:
                return
            raise SimulationError(f"throw into finished process {proc.name}")
        self.schedule(delay, partial(self._step, proc, None, exc), actor=proc.name)

    def kill(self, proc: Process) -> None:
        """Fail-stop ``proc`` immediately (simulated PE crash).

        The generator is closed (running any ``finally`` blocks at its
        current yield point), the process leaves the live set, and every
        later resume/throw aimed at it is silently discarded — in-flight
        completions for a dead PE land on the floor.
        """
        if proc.finished:
            return
        proc.finished = True
        proc.killed = True
        self._live -= 1
        proc.gen.close()

    def _step(self, proc: Process, value: Any, exc: BaseException | None = None) -> None:
        """One resume: send ``value`` (or raise ``exc``) into ``proc``,
        then start the request it yields.  A finished process is a no-op
        either way; only a send is checked against a double resume."""
        if proc.finished:
            return
        if not proc.waiting and exc is None:
            raise SimulationError(f"double resume of process {proc.name}")
        proc.waiting = False
        proc.blocked_on = None
        self.active = proc
        try:
            req = proc.gen.send(value) if exc is None else proc.gen.throw(exc)
        except StopIteration as stop:
            self._finish(proc, stop.value)
            return
        finally:
            self.active = None
        if proc.waiting:  # posted during the step: the resume is set
            if req is POSTED:
                return
            raise SimulationError(f"process {proc.name} posted a request, yielded {req!r}")
        proc.waiting = True
        if req.__class__ is Delay:
            # Store the request itself as the blocking description — its
            # repr renders lazily, only if a deadlock report needs it.
            proc.blocked_on = req
            when = self._now + req.ticks
            entry = [when, self._seq, proc._step0, proc.name]
            self._seq += 1
            q = self._q
            cur = q._cur
            if cur is not None and when >> q._shift == q._cur_key:
                insort(cur, entry, q._cur_i)
            else:
                q._push_slow(entry)
            q._len += 1
        elif isinstance(req, Call):
            req.handler(self, proc, *req.args)
        else:
            raise SimulationError(
                f"process {proc.name} yielded unsupported request {req!r}"
            )

    def _finish(self, proc: Process, result: Any) -> None:
        proc.finished = True
        proc.result = result
        self._live -= 1

    @property
    def live(self) -> int:
        """Number of spawned processes that have not finished."""
        return self._live

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, until: float | None = None) -> float:
        """Execute events until the queue drains (or ``until`` is reached).

        Returns the final virtual time.  Raises :class:`DeadlockError` if
        processes remain unfinished when the event queue empties — that
        means every live process is waiting on a resume nobody will send.

        With a :attr:`scheduler` or observers attached the instrumented
        loop runs (see :meth:`_run_instrumented`): same-timestamp events
        in the order the policy chooses, observers notified per event.
        Otherwise the bare fast path runs: same event order, same final
        stats, no per-event instrumentation.
        """
        if self.scheduler is not None or self.observers:
            return self._run_instrumented(until)
        global _event_tally
        q = self._q
        until_ticks = None if until is None else round(until * TICKS_PER_SECOND)
        events = 0
        try:
            if until_ticks is None:
                # Bare fast path: walk the current bucket by cursor with
                # the queue internals inlined.  ``q._cur`` keeps its
                # identity across callbacks (insertions insort in place,
                # compaction rewrites in place), so only the cursor and
                # length are re-read per iteration.
                if q._cur is not None and q._keys and q._keys[0] < q._cur_key:
                    # Resuming after run(until=) with an event inserted
                    # below the parked bucket: let peek() shelve it.  Only
                    # possible at entry — inside this loop every insert is
                    # at or after the current bucket.
                    q.peek()
                while True:
                    cur = q._cur
                    if cur is None or q._cur_i >= len(cur):
                        if q._promote() is None:
                            break
                        continue
                    i = q._cur_i
                    if i >= q.TRIM:
                        del cur[:i]
                        q._cur_i = i = 0
                    n = len(cur)
                    while i < n:
                        e = cur[i]
                        i += 1
                        fn = e[2]
                        if fn is None:  # tombstone (cancelled timer)
                            q._tombstones -= 1
                            continue
                        e[2] = None  # consumed: a late cancel() is a no-op
                        q._cur_i = i  # publish before fn() may insort
                        q._len -= 1
                        self._now = e[0]
                        events += 1
                        fn()
                        n = len(cur)  # fn may have inserted behind n
                    q._cur_i = i
            else:
                while True:
                    e = q.peek()
                    if e is None:
                        if self._live > 0:
                            raise DeadlockError(self._deadlock_report())
                        return self._now / TICKS_PER_SECOND
                    if e[0] > until_ticks:
                        self._now = until_ticks
                        return self._now / TICKS_PER_SECOND
                    q._cur_i += 1
                    q._len -= 1
                    fn = e[2]
                    e[2] = None
                    self._now = e[0]
                    events += 1
                    fn()
        finally:
            self.events_processed += events
            _event_tally += events
        if self._live > 0:
            raise DeadlockError(self._deadlock_report())
        return self._now / TICKS_PER_SECOND

    def _run_instrumented(self, until: float | None) -> float:
        """Instrumented loop: observers run after every event, and an
        attached scheduler breaks same-timestamp ties.

        Without a scheduler events run in default ``(when, seq)`` order.
        With one, each iteration gathers every live event sharing the
        minimal timestamp into a ready set (already in insertion order —
        the current bucket is sorted by ``(when, seq)``, so the tie run is
        contiguous at the cursor), asks the policy which to run, and
        removes only the chosen entry.  Events the chosen one schedules
        at the same timestamp binary-insert after the cursor and join the
        next iteration's ready set, so a policy can interleave a fresh
        resume ahead of older pending events — exactly the freedom a real
        unordered fabric has.
        """
        global _event_tally
        sched = self.scheduler
        observers = self.observers
        q = self._q
        until_ticks = None if until is None else round(until * TICKS_PER_SECOND)
        events = 0
        try:
            while True:
                first = q.peek()
                if first is None:
                    break
                when = first[0]
                if until_ticks is not None and when > until_ticks:
                    self._now = until_ticks
                    return self._now / TICKS_PER_SECOND
                cur = q._cur
                i = q._cur_i
                n = len(cur)
                if sched is not None and i + 1 < n and cur[i + 1][0] == when:
                    # Tie: gather the contiguous same-tick run (skipping
                    # tombstones) and let the policy choose.
                    ready: list[EventHandle] = []
                    pos: list[int] = []
                    j = i
                    while j < n and cur[j][0] == when:
                        e = cur[j]
                        if e[2] is not None:
                            ready.append(e)
                            pos.append(j)
                        j += 1
                    if len(ready) == 1:
                        entry = ready[0]
                        del cur[pos[0]]
                    else:
                        idx = sched.choose(when, ready)
                        entry = ready[idx]
                        del cur[pos[idx]]
                else:
                    entry = first
                    q._cur_i = i + 1
                q._len -= 1
                fn = entry[2]
                entry[2] = None
                self._now = when
                events += 1
                fn()
                for obs in observers:
                    obs()
        finally:
            self.events_processed += events
            self.instrumented_events += events
            _event_tally += events
        if self._live > 0:
            raise DeadlockError(self._deadlock_report())
        return self._now / TICKS_PER_SECOND

    def _deadlock_report(self) -> str:
        """Describe every stuck process and attached diagnostics."""
        lines = [
            f"event queue empty at t={self.now:.6g}s with "
            f"{self._live} live processes:"
        ]
        for p in self.processes:
            if p.finished:
                continue
            lines.append(f"  {p.name}: blocked on {p.blocked_on or '<unknown>'}")
        for diag in self.diagnostics:
            text = diag()
            if text:
                lines.append(text)
        if self.scheduler is not None:
            # Embed the schedule identity so the hang is replayable as-is:
            # feed the recorded choices to a ReplayScheduler (or the
            # `repro explore --replay` CLI) to reproduce it.
            lines.append(f"  scheduler: {self.scheduler.describe()}")
            lines.append(
                f"  schedule choices ({len(self.scheduler.choices)} decisions, "
                f"last {min(32, len(self.scheduler.choices))} shown): "
                f"{self.scheduler.choice_tail(32)}"
            )
        return "\n".join(lines)

    def run_all(self, gens: Iterable[tuple[str, ProcessGen]]) -> float:
        """Convenience: spawn named generators then :meth:`run` to completion."""
        for name, gen in gens:
            self.spawn(gen, name=name)
        return self.run()
