"""Worker processing-element main loop (paper §2.1, §3, §4).

Each PE runs the Scioto-style work-first loop:

1. execute tasks LIFO from the local queue portion (batched between
   management checkpoints, the way a real owner only inspects shared
   state periodically);
2. when the shared portion is empty but local work remains, *release*
   half to thieves; when local is empty but the shared portion still has
   unclaimed tasks, *acquire* half back;
3. when the whole queue is empty, *search*: pick a random victim and
   attempt a steal — successful attempts count toward steal time,
   failed ones toward search time (Figs. 7e/f, 8e/f);
4. service termination detection every iteration.

The loop is queue-implementation agnostic: every protocol's queue meets
the one owner/thief contract of :mod:`repro.core.split_queue`, and the
worker holds the queue itself.  SWS steal damping (probe-first
empty-mode, §4.3) lives here too, for the protocols that support it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from ..core.damping import DampingTracker, TargetMode
from ..core.results import StealResult, StealStatus
from ..core.split_queue import SplitQueue
from ..fabric.engine import TICKS_PER_SECOND, Delay
from ..fabric.errors import FabricTimeoutError, ProtocolError
from .registry import TaskContext, TaskRegistry
from .stats import WorkerStats
from .task import HEADER_BYTES, Task
from .termination import TerminationDetector
from .victim import VictimSelector

if TYPE_CHECKING:
    from .inbox import Inbox
    from .lifeline import LifelineManager


# An Enum member is a metaclass attribute lookup, several times a plain
# global: the per-attempt paths compare against these aliases.
_TIMEOUT = StealStatus.TIMEOUT
_ABANDONED = StealStatus.ABANDONED
_EMPTY = StealStatus.EMPTY
_STOLEN = StealStatus.STOLEN
_EMPTY_MODE = TargetMode.EMPTY


class _Pauses(dict):
    """Pause length -> its :class:`Delay`, built on first use: backoffs
    (``steal_backoff`` doubled up to the cap) and batch compute segments,
    which repeat when task durations do.  Durations that never repeat
    start the cache over every ``LIMIT`` lengths."""

    LIMIT = 1024

    def __missing__(self, seconds: float) -> Delay:
        if len(self) >= self.LIMIT:
            self.clear()
        pause = self[seconds] = Delay(seconds)
        return pause


@dataclass(frozen=True)
class WorkerConfig:
    """Tunables of the worker loop.

    Attributes
    ----------
    batch_max:
        Upper bound on tasks executed between management checkpoints.
    task_overhead:
        Per-task local queue manipulation cost (seconds) added to each
        task's compute time — dequeue, spawn enqueues, bookkeeping.
    steal_backoff:
        Initial pause after a failed steal attempt before trying the next
        victim.  Consecutive failures back off exponentially up to
        ``steal_backoff_max``; any success (or local work) resets it.
    release_min_local:
        Minimum local tasks required before releasing half to thieves
        (releasing the last task would immediately starve the owner).
    damping:
        Enable SWS steal damping (ignored for SDC).
    progress_every:
        Run the space-reclaim progress scan every N batches.
    spawn_policy:
        ``"work_first"`` (default, Cilk-style: keep executing, share at
        management checkpoints) or ``"help_first"`` (SLAW-style: break
        the batch after any spawn so fresh work is released to thieves
        as early as possible — faster dispersal, more release churn).
    idle_wait:
        With lifelines active, a quiescent non-zero PE blocks on
        ``wait_until_any`` (inbox delivery / token / termination flag)
        instead of backoff polling — zero idle events, hardware-style
        wait/wake.  PE 0 keeps polling (it initiates detection rounds).
    steal_timeout_retries:
        Fault mode: same-victim retries after a steal op raises
        :class:`~repro.fabric.errors.FabricTimeoutError`, before the
        victim is reported to the selector for quarantine.
    retry_jitter:
        Fault mode: retry backoff is stretched by a uniform draw in
        ``[0, retry_jitter]`` of itself, decorrelating thieves that
        timed out against the same victim simultaneously.
    quarantine_after:
        Fault mode: consecutive retry-exhausted steals against one victim
        before the pool's :class:`~repro.runtime.victim.QuarantineSelector`
        excludes it.
    quarantine_time:
        Fault mode: base quarantine duration (virtual seconds); doubles on
        each repeat offence and decays to a re-probe on expiry.
    """

    batch_max: int = 64
    task_overhead: float = 0.15e-6
    steal_backoff: float = 1.0e-6
    steal_backoff_max: float = 64.0e-6
    release_min_local: int = 2
    damping: bool = True
    progress_every: int = 4
    spawn_policy: str = "work_first"
    idle_wait: bool = False
    steal_timeout_retries: int = 2
    retry_jitter: float = 0.5
    quarantine_after: int = 2
    quarantine_time: float = 200e-6

    def __post_init__(self) -> None:
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.task_overhead < 0 or self.steal_backoff < 0:
            raise ValueError("overheads must be non-negative")
        if self.steal_backoff_max < self.steal_backoff:
            raise ValueError("steal_backoff_max must be >= steal_backoff")
        if self.release_min_local < 1:
            raise ValueError("release_min_local must be >= 1")
        if self.progress_every < 1:
            raise ValueError("progress_every must be >= 1")
        if self.spawn_policy not in ("work_first", "help_first"):
            raise ValueError(
                f"spawn_policy must be work_first|help_first, "
                f"got {self.spawn_policy!r}"
            )
        if self.steal_timeout_retries < 0:
            raise ValueError("steal_timeout_retries must be non-negative")
        if self.retry_jitter < 0:
            raise ValueError("retry_jitter must be non-negative")
        if self.quarantine_after < 1:
            raise ValueError("quarantine_after must be >= 1")
        if self.quarantine_time <= 0:
            raise ValueError("quarantine_time must be positive")


class Worker:
    """One simulated PE executing the task-pool loop."""

    def __init__(
        self,
        rank: int,
        npes: int,
        queue: SplitQueue,
        registry: TaskRegistry,
        selector: VictimSelector | None,
        termination: TerminationDetector,
        config: WorkerConfig,
        task_size: int,
        inbox: Inbox | None = None,
        lifeline: LifelineManager | None = None,
        seed: int = 0,
        damping: DampingTracker | None = None,
    ) -> None:
        self.rank = rank
        self.npes = npes
        self.queue = queue
        #: Per-target full/empty bookkeeping, for a protocol that supports
        #: steal damping (its queue then has ``probe``); ``None`` steals
        #: with the queue's ``steal`` directly.
        self.damping = damping
        self.registry = registry
        self.selector = selector
        self.term = termination
        self.cfg = config
        self.task_size = task_size
        self.stats = WorkerStats(rank=rank)
        self.tc = TaskContext(rank=rank, npes=npes)
        self.inbox = inbox
        self.lifeline = lifeline
        if lifeline is not None and inbox is None:
            raise ProtocolError("lifelines require the delivery inbox")
        ctx = queue.system.ctx
        self._engine = ctx.engine
        # Fault mode: timed-out steals are retried with jittered backoff.
        # The jitter RNG is drawn from ONLY on fault paths, so reliable
        # runs stay bit-identical regardless of seed.
        self._fault_mode = ctx.faults is not None
        self._retry_rng = random.Random((seed << 16) ^ (rank * 0x9E3779B1) ^ 0xFA117)
        # One steal attempt, composed once: the queue's ``steal``, behind
        # the probe-first step when damping applies, behind the
        # timeout-retry wrapper only on a fabric whose ops can time out.
        self._steal_once = queue.steal if damping is None else self._probe_first_steal
        can_time_out = self._fault_mode or ctx.nic.op_timeout is not None
        self._steal = self._attempt_steal if can_time_out else self._steal_once
        # A traced run (``ctx.metrics.trace_enabled``, the steal trace of
        # :mod:`repro.fabric.trace`) records each attempt in one more
        # layer; an untraced worker composes none of it.
        self._traced = ctx.metrics.trace_enabled
        #: Traced: per steal attempt, (victim, start, end, status, ntasks,
        #: and the slice of ``ctx.metrics.trace`` its ops fall in).
        self.spans: list[tuple] = []
        #: Traced: (virtual time, local count, stealable count) at every
        #: management checkpoint.
        self.samples: list[tuple[float, int, int]] = []
        if self._traced:
            self._ops = ctx.metrics.trace
            self._steal_untraced = self._steal
            self._steal = self._traced_steal
        self._batches = 0
        self._backoff = config.steal_backoff
        self._pauses = _Pauses()

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._engine.now

    def seed(self, tasks: list[Task]) -> None:
        """Place initial tasks on this PE's queue (pre-run, untimed)."""
        payload_max = self.task_size - HEADER_BYTES
        for task in tasks:
            if len(task.payload) > payload_max:
                task.serialize(self.task_size)  # raises: names the sizes
        self.queue.push(tasks)
        self.stats.tasks_spawned += len(tasks)

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        """The PE's process body; finishes at global termination."""
        queue = self.queue
        pe = queue.pe
        engine = self._engine
        stats = self.stats
        cfg = self.cfg
        term = self.term
        inbox = self.inbox
        lifeline = self.lifeline
        steal = self._steal
        pauses = self._pauses
        traced = self._traced
        multi = self.npes > 1
        # Help-first and lifelines may act in ``_manage`` after any batch.
        manage_always = cfg.spawn_policy == "help_first" or lifeline is not None
        # Resolved once, as the body starts: an idle iteration re-decides
        # none of this.
        selector = self.selector
        solo = self.npes == 1 or selector is None
        next_victim = None if solo else selector.next_victim
        progress = queue.progress
        needs_service = term.needs_service
        note = getattr(selector, "note", None)
        note_steal = getattr(selector, "note_steal", None)
        note_timeout = getattr(selector, "note_timeout", None)
        yield pe.barrier_all()
        while True:
            idle = queue.local_count == 0
            if needs_service(idle):
                created = stats.tasks_spawned + queue.dup_handouts
                if self._fault_mode:
                    # Quiescent = holds no live work at all: nothing local,
                    # nothing advertised to thieves, inbox drained.  Feeds
                    # the fault-mode termination test's all-quiescent bit.
                    quiescent = (
                        idle
                        and queue.stealable == 0
                        and (inbox is None or not inbox.pending_hint)
                    )
                    done = yield from term.service(
                        created, stats.tasks_executed, idle, quiescent
                    )
                else:
                    done = yield from term.service(
                        created, stats.tasks_executed, idle
                    )
                if done or term.terminated:
                    break
                idle = queue.local_count == 0

            if inbox is not None:
                # Committed lifeline deliveries move onto the local queue.
                queue.enqueue_many(inbox.drain())
                idle = queue.local_count == 0

            # ``idle`` is re-read after every yield and drain above: only an
            # engine event (the serving injector) or the owner moves the
            # local portion, and the injector only adds to it.
            if lifeline is not None and lifeline.active and not idle:
                # A lifeline delivery arrived: withdraw the others.
                yield from lifeline.retract()

            if not idle:
                self._backoff = cfg.steal_backoff
                yield from self._execute_batch()
                self._batches += 1
                if traced:
                    self.samples.append((self.now, queue.local_count, queue.stealable))
                if self._batches % cfg.progress_every == 0:
                    queue.progress()
                if manage_always or (
                    multi and queue.stealable == 0
                    and queue.local_count >= cfg.release_min_local
                ):
                    yield from self._manage()
                continue

            if queue.stealable > 0:
                t0 = engine._now
                got = yield from queue.acquire()
                stats.acquire_time += (
                    engine._now / TICKS_PER_SECOND - t0 / TICKS_PER_SECOND
                )
                stats.acquires += 1
                if got:
                    continue

            # Fully idle: reclaim space, then hunt for work.
            progress()
            if solo:
                yield pauses[cfg.steal_backoff]
                continue
            if lifeline is not None:
                if lifeline.active:
                    # Quiescent: no steal traffic; wait for a delivery.
                    if cfg.idle_wait and self.rank != 0:
                        conds = list(term.wake_conditions())
                        conds.append(inbox.wake_condition())
                        yield pe.wait_until_any(conds)
                    else:
                        yield pauses[self._backoff]
                        self._backoff = min(
                            cfg.steal_backoff_max, self._backoff * 2
                        )
                    continue
                if lifeline.should_activate:
                    yield from lifeline.activate()
                    continue
            victim = next_victim()
            t0 = engine._now
            result = yield from steal(victim)
            # Two divisions, then the difference: (t1 - t0) / 10**15
            # differs in the last ulp and would move every search time.
            dt = engine._now / TICKS_PER_SECOND - t0 / TICKS_PER_SECOND
            status = result.status
            success = status is _STOLEN and result.ntasks > 0
            if status is _TIMEOUT:
                # Retries exhausted: the selector may quarantine the victim.
                if note_timeout is not None:
                    note_timeout(victim)
            else:
                if status is _ABANDONED:
                    stats.steals_abandoned += 1
                if note_steal is not None:
                    note_steal(victim, success)
            if lifeline is not None:
                lifeline.note_steal(success)
            if note is not None:
                note(success)
            if success:
                stats.steal_time += dt
                stats.steals_ok += 1
                stats.tasks_stolen += result.ntasks
                stats.note_steal_volume(result.ntasks)
                self._backoff = cfg.steal_backoff
                queue.enqueue_many(result.records)
            else:
                stats.search_time += dt
                stats.steals_failed += 1
                yield pauses[self._backoff]
                self._backoff = min(cfg.steal_backoff_max, self._backoff * 2)
        # Drain any passive completion notifications before exiting.
        if self._fault_mode:
            try:
                yield pe.quiet()
            except FabricTimeoutError:
                pass  # stragglers drain in background events after exit
        else:
            yield pe.quiet()

    def _traced_steal(self, victim: int) -> Generator:
        """One steal attempt of a traced run, recorded as a span."""
        engine = self._engine
        t0, first = engine.now, len(self._ops)
        result = yield from self._steal_untraced(victim)
        self.spans.append((victim, t0, engine.now, result.status,
                           result.ntasks, first, len(self._ops)))
        return result

    def _attempt_steal(self, victim: int) -> Generator:
        """One steal on a fabric whose ops can time out (a reliable one
        never routes through here).

        A :class:`FabricTimeoutError` is retried against the same victim
        up to ``steal_timeout_retries`` times with exponential backoff
        and a jitter stretch; exhaustion surfaces as a ``TIMEOUT``
        :class:`StealResult`, which the loop reports to the selector.
        """
        retries = 0
        while True:
            try:
                return (yield from self._steal_once(victim))
            except FabricTimeoutError:
                self.stats.steal_timeouts += 1
                if retries >= self.cfg.steal_timeout_retries:
                    return StealResult(_TIMEOUT, victim)
                retries += 1
                self.stats.steal_retries += 1
                pause = min(
                    self.cfg.steal_backoff * (2 ** (retries - 1)),
                    self.cfg.steal_backoff_max,
                )
                pause *= 1.0 + self.cfg.retry_jitter * self._retry_rng.random()
                yield Delay(pause)

    def _probe_first_steal(self, victim: int) -> Generator:
        """One damping-aware steal attempt (paper §4.3).

        A victim in empty-mode is probed read-only first and only
        claimed from when the probe's raw word shows work (the codec's
        shift-and-mask ``has_work``); a claiming attempt that comes back
        empty is re-read as a view for the demotion heuristic.
        """
        damping = self.damping
        queue = self.queue
        if damping.modes.get(victim) is _EMPTY_MODE:
            word = yield queue.probe(victim)
            self.stats.probes += 1
            if not queue.codec.has_work(word):
                return queue.empty_results[victim]
            damping.note_success(victim)
        result = yield from queue.steal(victim)
        status = result.status
        if status is _STOLEN and result.ntasks:
            damping.note_success(victim)
        elif status is _EMPTY:
            view = queue.codec.unpack((yield queue.probe(victim)))
            self.stats.probes += 1
            damping.note_failed_claim(victim, view)
        return result

    # ------------------------------------------------------------------
    def _execute_batch(self) -> Generator:
        """Run up to ``batch_max`` local tasks as one compute segment.

        The batch is a write-back window over the local portion: tasks
        spawned in it wait on ``stack``, the top of the LIFO, and only
        the ones still there at the end are pushed.
        """
        queue = self.queue
        stats = self.stats
        local = queue.local_count
        budget = min(self.cfg.batch_max, local)
        if stats.tasks_executed == 0 and budget > 0:
            stats.first_task_time = self.now
        # Loop-invariant hoists.  The loop body never yields, so no engine
        # event can interleave with it: nothing reads the local portion
        # before the write-back, and the advertised shared portion —
        # mutated only by remote atomics (fabric events) or the owner's
        # own release/acquire (not called here) — is constant for the
        # whole batch, so its emptiness check is evaluated once.
        pop = queue.pop
        fns = self.registry.dispatch_table()
        nfns = len(fns)
        tc = self.tc
        task_size = self.task_size
        payload_max = task_size - HEADER_BYTES
        overhead = self.cfg.task_overhead
        help_first = self.cfg.spawn_policy == "help_first"
        multi = self.npes > 1
        release_min = self.cfg.release_min_local
        shared_empty = multi and queue.stealable == 0
        stack: list[Task] = []
        # Slots known to be free beyond ``stack``.  Running a task only adds
        # room, so the count may trail the truth but never leads it.
        room = 0
        executed = 0
        duration = 0.0
        spawned = 0
        task_time = 0.0
        while executed < budget:
            if stack:
                task = stack.pop()
            else:
                # ``budget`` tasks were local when the batch began.
                task = pop()
                local -= 1
            fn_id = task.fn_id
            if fn_id >= nfns:
                raise ProtocolError(f"task references unregistered fn_id {fn_id}")
            outcome = fns[fn_id](task.payload, tc)
            children = outcome.children
            for child in children:
                if len(child.payload) > payload_max:
                    child.serialize(task_size)  # raises: names the sizes
                if not room:
                    room = queue.room(len(stack))
                room -= 1
                stack.append(child)
            spawned += len(children)
            task_time += outcome.duration
            duration += outcome.duration + overhead
            executed += 1
            if (
                multi
                and ((help_first and children) or shared_empty)
                and local + len(stack) >= release_min
            ):
                # Break the batch so _manage can release promptly.
                break
        if stack:
            queue.push(stack)
        stats.tasks_spawned += spawned
        stats.task_time += task_time
        stats.tasks_executed += executed
        if duration > 0:
            yield self._pauses[duration]

    def _manage(self) -> Generator:
        """Post-batch release and lifeline donations.  The loop enters it
        only where it can act: anywhere else it yields and changes nothing."""
        queue = self.queue
        shared = queue.stealable
        want_release = shared == 0
        if (
            self.cfg.spawn_policy == "help_first"
            and queue.release_merges_shared
            and shared < queue.local_count // 2
        ):
            # Help-first: keep the shared portion topped up; SWS release
            # merges the unclaimed remainder so this is safe mid-allotment
            # (SDC release requires an empty shared portion, so the SDC
            # help-first policy degenerates to eager batch breaking only).
            want_release = True
        if (
            self.npes > 1
            and want_release
            and queue.local_count >= self.cfg.release_min_local
        ):
            t0 = self.now
            yield from queue.release()
            self.stats.release_time += self.now - t0
            self.stats.releases += 1
        if self.lifeline is not None:
            yield from self._fulfill_lifelines()

    def _fulfill_lifelines(self) -> Generator:
        """Donor side: push surplus local tasks to quiescent buddies."""
        ll = self.lifeline
        queue = self.queue
        if queue.local_count <= ll.cfg.donor_min_local:
            return
        for requester in ll.pending_requests():
            donated: list[bytes] = []
            while (
                len(donated) < ll.cfg.donate_max
                and queue.local_count > ll.cfg.donor_min_local
            ):
                rec = queue.dequeue()
                if rec is None:
                    break
                donated.append(rec)
            if not donated:
                break
            ll.clear_request(requester)
            for rec in donated:
                yield from self.inbox.send(requester, rec)
            ll.note_donation(len(donated))
