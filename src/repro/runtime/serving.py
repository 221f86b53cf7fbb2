"""Open-system serving mode on the fabric backend.

The classic :class:`~repro.runtime.pool.TaskPool` run is closed-batch.
This module layers the streaming frontend on top: a
:class:`ServingController` pre-schedules every tick of a seeded
:class:`~repro.runtime.arrivals.ArrivalProcess` as engine events, injects
each arrival into a PE (round-robin with an optional shed threshold),
and stamps enqueue→complete latencies into a
:class:`~repro.runtime.stats.QuantileSketch`.

Termination still comes from the unmodified ring/tree detectors: the
controller registers itself as the termination system's
``arrival_source``, so the detectors refuse to declare quiescence while
future injections are scheduled — the run ends by draining *after* the
arrival horizon, which makes every closed-system oracle (conservation,
drain, exactly-once checksums) apply unchanged, plus the open-system
ledger checked by
:func:`~repro.runtime.oracle.check_serving_conservation`.
"""

from __future__ import annotations

import struct

from ..capabilities import check
# ``run_serve`` builds its pool inside the call its callers time, so the
# queue modules of the two protocols the CLI serves load with this module:
# the registry's lazy factories then find them compiled.
from ..core import sdc_queue, sws_queue  # noqa: F401
from ..fabric.engine import to_ticks
from ..fabric.errors import ProtocolError
from .arrivals import ArrivalProcess, parse_arrival_spec
from .pool import TaskPool
from .registry import TaskOutcome, TaskRegistry
from .stats import RunStats, ServingStats
from .task import Task, make_task
from .worker import WorkerConfig

#: The serve payload: the arrival's seq, one little-endian u32.
_SEQ = struct.Struct("<I")


class ServingController:
    """Injects one arrival trace into a running pool and keeps the books.

    The controller is also the pool's ``arrival_source`` (its
    :meth:`pending` gates termination, and the pool's record takes its
    :meth:`serving_stats`) and the completion sink (the ``serve`` task
    function reports back through :meth:`complete`).

    Every arrival tick is scheduled with the one bound method
    :meth:`_fire`, which labels an arrival by the number fired before it.
    The bare loop fires arrivals in trace order (ticks non-decreasing,
    pushed with ascending engine seqs), so the label is the trace index.
    A tie-breaking scheduler may fire arrivals that share a tick in its
    own order, and their labels then follow fire order.  They share one
    enqueue tick, the round-robin target is picked in fire order either
    way and the checksum is order-free, so no statistic moves; with
    shedding on, which seqs of a tied group are shed follows fire order.
    """

    def __init__(
        self,
        pool: TaskPool,
        process: ArrivalProcess,
        fn_id: int,
        slo_s: float = 0.0,
        shed_threshold: int | None = None,
    ) -> None:
        self.pool = pool
        self.process = process
        self.fn_id = fn_id
        self.shed_threshold = shed_threshold
        self.task_size = pool.queue_config.task_size
        self.engine = pool.ctx.engine
        self.metrics = pool.ctx.metrics
        self.stats = ServingStats(
            emitted=process.emitted,
            slo_ticks=to_ticks(slo_s) if slo_s > 0 else 0)
        self._fired = 0
        self._next_rank = 0
        #: Enqueue tick per seq; ``None`` until injected and once completed.
        self._enqueue_tick: list[int | None] = [None] * process.emitted
        Task(fn_id, bytes(_SEQ.size)).serialize(self.task_size)  # raises if too small

    # -- termination gate ----------------------------------------------
    def pending(self) -> int:
        """Arrival events still scheduled (monotone non-increasing)."""
        return len(self._enqueue_tick) - self._fired

    # -- setup ----------------------------------------------------------
    def attach(self) -> None:
        """Pre-schedule the whole trace and hook the termination gate."""
        fire = self._fire
        for tick in self.process.trace():
            self.engine.at_ticks(tick, fire, actor="arrivals")
        self.pool.term_system.arrival_source = self

    def _fire(self) -> None:
        """One arrival event: label it and inject it (see the class doc)."""
        seq = self._fired
        self._fired = seq + 1
        self._inject(seq)

    # -- injection -------------------------------------------------------
    def _pick_target(self) -> int | None:
        """Round-robin over the PEs, skipping overloaded queues.

        One full sweep; ``None`` means every queue is at or over the shed
        threshold (the overload signal).  Without a threshold the next PE
        in rotation wins — pure round-robin spread.
        """
        npes = self.pool.npes
        for _ in range(npes):
            rank = self._next_rank
            self._next_rank = (self._next_rank + 1) % npes
            if self.shed_threshold is not None:
                queue = self.pool.workers[rank].queue
                if queue.local_count + queue.stealable >= self.shed_threshold:
                    continue
            return rank
        return None

    def _inject(self, seq: int) -> None:
        target = self._pick_target()
        if target is None:
            self.stats.shed += 1
            self.metrics.record_serving("shed")
            return
        worker = self.pool.workers[target]
        worker.queue.push([make_task(self.fn_id, _SEQ.pack(seq))])
        # The injection is the spawn: counting it on the target keeps the
        # four-counter termination books and the conservation oracle
        # exact (executed can never outrun spawned + injected).
        worker.stats.tasks_spawned += 1
        if self.pool.oracle is not None:
            # This event, not the target's process, changed its books.
            self.pool.oracle.touched(target)
        self.stats.injected += 1
        self._enqueue_tick[seq] = self.engine._now
        self.metrics.record_serving("injected")

    # -- completion sink -------------------------------------------------
    def complete(self, payload: bytes) -> None:
        """Called by the serve task fn once per arrival: latency, SLO, checksum."""
        (seq,) = _SEQ.unpack_from(payload)
        ticks = self._enqueue_tick
        enqueued = ticks[seq]
        if enqueued is None:
            raise ProtocolError(f"arrival {seq} completed twice or never injected")
        ticks[seq] = None
        self.stats.complete(seq, self.engine._now - enqueued)

    # -- results ----------------------------------------------------------
    def serving_stats(self) -> ServingStats:
        return self.stats

    def books(self) -> dict:
        """The open-system ledger for the conservation oracle."""
        workers = self.pool.workers
        stats = self.serving_stats()
        return {
            "emitted": stats.emitted,
            "injected": stats.injected,
            "shed": stats.shed,
            "spawned": sum(w.stats.tasks_spawned for w in workers),
            "executed": sum(w.stats.tasks_executed for w in workers),
            "resident": sum(
                w.queue.local_count + w.queue.stealable
                for w in workers
            ),
        }


def build_serving_registry(task_s: float) -> tuple[TaskRegistry, list]:
    """Registry with one ``serve`` fn reporting into a late-bound sink.

    The controller does not exist yet when the pool (and thus the
    registry) is built, so the fn closes over a one-slot cell the caller
    fills in afterwards.
    """
    cell: list = [None]
    registry = TaskRegistry()
    outcome = TaskOutcome(duration=task_s)  # a leaf: one shared outcome

    def serve_fn(payload: bytes, tc) -> TaskOutcome:
        cell[0].complete(payload)
        return outcome

    registry.register("serve", serve_fn)
    return registry, cell


def run_serve(
    npes: int,
    impl: str = "sws",
    arrival: str | ArrivalProcess = "poisson:50000",
    duration_s: float = 2e-3,
    slo_s: float = 0.0,
    seed: int = 0,
    task_s: float = 2e-6,
    shed_threshold: int | None = None,
    oracle: bool = True,
    controller_factory=ServingController,
    worker_config: WorkerConfig | None = None,
    **pool_kwargs,
) -> RunStats:
    """One open-system serving run on the fabric backend.

    The run ends when the arrival horizon passes *and* the pool drains —
    the virtual deadline is ``duration_s`` for the arrival stream, after
    which the unmodified termination detectors (gated on the controller's
    ``pending()``) declare as usual.  Returns :class:`RunStats` with the
    ``serving`` field populated; seeded runs are bit-reproducible.

    The serving books (one enqueue tick, one completion, one checksum
    term per arrival) are exactly-once by construction, so a protocol
    whose contract allows a task to run twice is refused.
    """
    check(impl, "fabric",
          ("serving",) + ("shedding",) * (shed_threshold is not None))
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival

    registry, cell = build_serving_registry(task_s)
    pool = TaskPool(
        npes,
        registry,
        impl=impl,
        seed=seed,
        oracle=oracle,
        worker_config=worker_config,
        **pool_kwargs,
    )
    controller = controller_factory(
        pool,
        process,
        fn_id=registry.id_of("serve"),
        slo_s=slo_s,
        shed_threshold=shed_threshold,
    )
    cell[0] = controller
    controller.attach()

    stats = pool.run()
    if oracle:
        # Loaded when the pool armed its oracle, before the run.
        from .oracle import check_serving_conservation

        check_serving_conservation(controller.books())
    return stats

