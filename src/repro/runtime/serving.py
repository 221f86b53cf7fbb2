"""Open-system serving mode on the fabric backend.

The classic :class:`~repro.runtime.pool.TaskPool` run is closed-batch.
This module layers the streaming frontend on top: a
:class:`ServingController` pre-schedules every tick of a seeded
:class:`~repro.runtime.arrivals.ArrivalProcess` as engine events, injects
each arrival into the least-loaded active PE (round-robin with an
optional shed threshold), stamps enqueue→complete latencies into a
:class:`~repro.runtime.stats.QuantileSketch`, and drives the seeded
:class:`~repro.runtime.arrivals.ElasticPlan` membership changes.

Termination still comes from the unmodified ring/tree detectors: the
controller registers itself as the termination system's
``arrival_source``, so the detectors refuse to declare quiescence while
future injections are scheduled — the run ends by draining *after* the
arrival horizon, which makes every closed-system oracle (conservation,
drain, exactly-once checksums) apply unchanged, plus the open-system
ledger checked by
:func:`~repro.runtime.oracle.check_serving_conservation`.

Elasticity reuses the fail-stop plumbing in its graceful form: a leave
drains the PE's shared portion, hands the local residue through the
remote-spawn inbox to the lowest active rank, and parks the worker (it
keeps forwarding the termination token); a join flips the directory flag
and the worker unparks on its next loop iteration.  Thieves dodge parked
victims via :class:`~repro.runtime.victim.ElasticMembership`.
"""

from __future__ import annotations

import struct

# ``run_serve`` builds its pool inside the call its callers time, so the
# queue modules of the two protocols the CLI serves load with this module:
# the registry's lazy factories then find them compiled.
from ..core import sdc_queue, sws_queue  # noqa: F401
from ..fabric.engine import to_ticks
from ..fabric.errors import ProtocolError
from .arrivals import (
    ArrivalProcess,
    ElasticPlan,
    mix64,
    parse_arrival_spec,
    parse_elastic_spec,
)
from .pool import TaskPool
from .registry import TaskOutcome, TaskRegistry
from .stats import QuantileSketch, RunStats, ServingStats
from .task import Task
from .victim import ElasticMembership
from .worker import WorkerConfig


class ElasticDirectory:
    """Live membership flags for one serving run.

    Engine callbacks from the :class:`ElasticPlan` mutate it; workers and
    victim selectors read it.  PE 0 is always active (it anchors
    termination detection), which the plan validator already enforces.
    """

    def __init__(self, npes: int) -> None:
        self.npes = npes
        self._active = [True] * npes
        self.leaves = 0
        self.joins = 0

    def is_active(self, rank: int) -> bool:
        return self._active[rank]

    @property
    def nactive(self) -> int:
        return sum(self._active)

    def active_ranks(self) -> list[int]:
        return [r for r in range(self.npes) if self._active[r]]

    def set_active(self, rank: int, active: bool) -> None:
        if self._active[rank] == active:
            return
        self._active[rank] = active
        if active:
            self.joins += 1
        else:
            self.leaves += 1

    def handoff_target(self, rank: int) -> int:
        """Lowest active rank other than ``rank`` (PE 0 is always there)."""
        for r in range(self.npes):
            if r != rank and self._active[r]:
                return r
        raise ProtocolError("no active PE left to hand work to")


class ServingController:
    """Injects one arrival trace into a running pool and keeps the books.

    The controller is also the pool's ``arrival_source`` (its
    :meth:`pending` gates termination) and the completion sink (the
    ``serve`` task function reports back through :meth:`complete`).
    """

    def __init__(
        self,
        pool: TaskPool,
        process: ArrivalProcess,
        fn_id: int,
        slo_s: float = 0.0,
        shed_threshold: int | None = None,
        directory: ElasticDirectory | None = None,
        latency_rel_err: float = 0.01,
    ) -> None:
        self.pool = pool
        self.process = process
        self.fn_id = fn_id
        self.slo_ticks = to_ticks(slo_s) if slo_s > 0 else 0
        self.shed_threshold = shed_threshold
        self.directory = directory
        self.task_size = pool.queue_config.task_size
        self.engine = pool.ctx.engine
        self.metrics = pool.ctx.metrics
        self.sketch = QuantileSketch(rel_err=latency_rel_err)
        self.injected = 0
        self.shed = 0
        self.completed = 0
        self.slo_attained = 0
        self.checksum = 0
        self._fired = 0
        self._total = 0
        self._next_rank = 0
        self._enqueue_tick: dict[int, int] = {}

    # -- termination gate ----------------------------------------------
    def pending(self) -> int:
        """Arrival events still scheduled (monotone non-increasing)."""
        return self._total - self._fired

    # -- setup ----------------------------------------------------------
    def attach(self) -> None:
        """Pre-schedule the whole trace and hook the termination gate."""
        trace = self.process.trace()
        self._total = len(trace)
        for seq, tick in enumerate(trace):
            self.engine.at_ticks(
                tick, self._make_arrival(seq), actor="arrivals"
            )
        self.pool.term_system.arrival_source = self

    def _make_arrival(self, seq: int):
        def fire() -> None:
            self._fired += 1
            self._inject(seq)
        return fire

    # -- injection -------------------------------------------------------
    def _pick_target(self) -> int | None:
        """Round-robin over active PEs, skipping overloaded queues.

        One full sweep; ``None`` means every active queue is at or over
        the shed threshold (the overload signal).  Without a threshold
        the first active PE in rotation wins — pure round-robin spread.
        """
        npes = self.pool.npes
        for _ in range(npes):
            rank = self._next_rank
            self._next_rank = (self._next_rank + 1) % npes
            if self.directory is not None and not self.directory.is_active(rank):
                continue
            if self.shed_threshold is not None:
                queue = self.pool.workers[rank].queue
                if queue.local_count + queue.stealable >= self.shed_threshold:
                    continue
            return rank
        return None

    def _inject(self, seq: int) -> None:
        target = self._pick_target()
        if target is None:
            self.shed += 1
            self.metrics.record_serving("shed")
            return
        worker = self.pool.workers[target]
        record = Task(self.fn_id, struct.pack("<I", seq)).serialize(
            self.task_size
        )
        worker.queue.enqueue(record)
        # The injection is the spawn: counting it on the target keeps the
        # four-counter termination books and the conservation oracle
        # exact (executed can never outrun spawned + injected).
        worker.stats.tasks_spawned += 1
        if self.pool.oracle is not None:
            # This event, not the target's process, changed its books.
            self.pool.oracle.touched(target)
        self.injected += 1
        self._enqueue_tick[seq] = self.engine.now_ticks
        self.metrics.record_serving("injected")

    # -- completion sink -------------------------------------------------
    def complete(self, payload: bytes) -> None:
        """Called by the serve task fn: stamp latency, SLO, checksum."""
        (seq,) = struct.unpack_from("<I", payload)
        latency = self.engine.now_ticks - self._enqueue_tick.pop(seq)
        self.sketch.add(latency)
        self.completed += 1
        if self.slo_ticks and latency <= self.slo_ticks:
            self.slo_attained += 1
        self.checksum ^= mix64(seq)

    # -- results ----------------------------------------------------------
    def serving_stats(self) -> ServingStats:
        handoffs = sum(w.elastic_handoffs for w in self.pool.workers)
        return ServingStats(
            emitted=self.process.emitted,
            injected=self.injected,
            shed=self.shed,
            completed=self.completed,
            handoffs=handoffs,
            leaves=self.directory.leaves if self.directory else 0,
            joins=self.directory.joins if self.directory else 0,
            slo_ticks=self.slo_ticks,
            slo_attained=self.slo_attained,
            checksum=self.checksum,
            latency=self.sketch,
        )

    def books(self) -> dict:
        """The open-system ledger for the conservation oracle."""
        workers = self.pool.workers
        return {
            "emitted": self.process.emitted,
            "injected": self.injected,
            "shed": self.shed,
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

    def serve_fn(payload: bytes, tc) -> TaskOutcome:
        cell[0].complete(payload)
        return TaskOutcome(duration=task_s)

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
    elastic: str | ElasticPlan | None = None,
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
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    if elastic == "seeded":
        plan: ElasticPlan | None = ElasticPlan.seeded(seed, npes, duration_s)
    elif isinstance(elastic, str):
        plan = parse_elastic_spec(elastic)
    else:
        plan = elastic
    if plan is not None and not plan.active:
        plan = None
    if plan is not None:
        plan.validate(npes)

    registry, cell = build_serving_registry(task_s)
    pool = TaskPool(
        npes,
        registry,
        impl=impl,
        seed=seed,
        remote_spawn=plan is not None,
        oracle=oracle,
        worker_config=worker_config,
        **pool_kwargs,
    )
    semantics = pool.protocol.semantics
    if not semantics.exactly_once:
        raise ValueError(
            f"serving needs an exactly-once protocol: {impl!r} is "
            f"{semantics.name} ({semantics.description})"
        )

    directory = None
    if plan is not None:
        directory = ElasticDirectory(npes)
        engine = pool.ctx.engine
        for ev in plan.events:
            engine.at(
                ev.time_s,
                _make_membership_event(pool, directory, ev),
                actor="elastic",
            )
        for w in pool.workers:
            w.elastic = directory
            if w.selector is not None:
                w.selector = ElasticMembership(w.selector, directory)

    controller = controller_factory(
        pool,
        process,
        fn_id=registry.id_of("serve"),
        slo_s=slo_s,
        shed_threshold=shed_threshold,
        directory=directory,
    )
    cell[0] = controller
    controller.attach()

    stats = pool.run()
    if oracle:
        # Loaded when the pool armed its oracle, before the run.
        from .oracle import check_serving_conservation

        check_serving_conservation(controller.books())
    stats.serving = controller.serving_stats()
    return stats


def _make_membership_event(pool: TaskPool, directory: ElasticDirectory, ev):
    def fire() -> None:
        directory.set_active(ev.rank, ev.action == "join")
        pool.ctx.metrics.record_serving(ev.action)
    return fire
