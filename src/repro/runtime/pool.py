"""Task-pool driver: build a simulated job, run it, collect statistics.

:class:`TaskPool` is the library's main entry point.  It wires together
the fabric, a queue implementation (``"sws"`` or ``"sdc"``), termination
detection, and one worker per PE, then runs the discrete-event engine to
global termination and returns :class:`~repro.runtime.stats.RunStats`.

Example::

    from repro import TaskPool, Task, TaskOutcome, TaskRegistry

    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-3))
    pool = TaskPool(npes=8, registry=reg, impl="sws")
    pool.seed(0, [Task(reg.id_of("leaf")) for _ in range(1000)])
    stats = pool.run()
    print(stats.throughput, stats.parallel_efficiency)
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from ..core.config import QueueConfig
from ..core.damping import DampingTracker
from ..fabric.latency import EDR_INFINIBAND, TIERED_EDR, LatencyModel
from ..fabric.topology import TieredTopology, Topology
from ..shmem.api import ShmemCtx
from .protocols import get_protocol, protocol_names
from .registry import TaskRegistry
from .stats import RunStats
from .task import Task
from .termination import TerminationSystem, TreeTerminationSystem
from .victim import QuarantineSelector, make_selector
from .worker import Worker, WorkerConfig

# What an option switches on (fault plan, scheduler, oracle, inbox,
# lifelines) is imported by the branch of ``__init__`` that switches it
# on: a plain pool never compiles it, and nothing is imported in ``run``.
if TYPE_CHECKING:
    from ..fabric.faults import FaultPlan
    from ..fabric.scheduler import Scheduler
    from .lifeline import LifelineConfig
    from .oracle import PoolOracle

#: The paper's own implementations: ``sws`` is the Figure-4 epoch design;
#: ``sws-v1`` the Figure-3 valid-bit variant (§4.1); ``sdc`` the Scioto
#: baseline.  ``impl`` accepts any protocol registered in
#: :mod:`repro.runtime.protocols` (see :func:`protocol_names`), of which
#: these three are the historical core.
IMPLEMENTATIONS = ("sws", "sws-v1", "sdc")


class TaskPool:
    """A complete simulated work-stealing job."""

    def __init__(
        self,
        npes: int,
        registry: TaskRegistry,
        impl: str = "sws",
        queue_config: QueueConfig | None = None,
        worker_config: WorkerConfig | None = None,
        latency: LatencyModel = EDR_INFINIBAND,
        pes_per_node: int = 48,
        victim: str | None = None,
        seed: int = 0,
        remote_spawn: bool = False,
        inbox_capacity: int = 1024,
        lifelines: bool = False,
        lifeline_config: LifelineConfig | None = None,
        termination: str = "ring",
        fault_plan: FaultPlan | None = None,
        op_timeout: float | None = None,
        token_timeout: float | None = None,
        scheduler: Scheduler | str | None = None,
        oracle: bool = False,
        topology: Topology | None = None,
    ) -> None:
        try:
            protocol = get_protocol(impl)
        except KeyError:
            raise ValueError(
                f"impl must be a registered protocol "
                f"{protocol_names()}, got {impl!r}"
            ) from None
        self.npes = npes
        self.impl = impl
        #: The registered steal protocol driving every layer below.
        self.protocol = protocol
        self.registry = registry
        self.queue_config = queue_config or QueueConfig()
        self.worker_config = worker_config or WorkerConfig()
        self.seed_value = seed
        if victim is None:
            victim = protocol.default_victim
        # A tiered protocol wants the socket/node/rack hierarchy; build
        # it (and swap in the tiered latency preset, when the caller
        # kept the default) unless an explicit topology overrides.
        if topology is None and protocol.tiered:
            topology = TieredTopology(npes, pes_per_node=pes_per_node)
            if latency is EDR_INFINIBAND:
                latency = TIERED_EDR
        self.topology_override = topology

        faulty = fault_plan is not None and fault_plan.active
        if faulty:
            if not protocol.supports_faults:
                raise ValueError(
                    f"fault injection is not supported for impl={impl!r} "
                    f"(the protocol declares no recovery path)"
                )
            if termination != "ring":
                raise ValueError(
                    "fault injection requires termination='ring' "
                    "(the tree detector has no fault-tolerant variant)"
                )
            if any(f.pe == 0 for f in fault_plan.pe_failures):
                raise ValueError(
                    "PE 0 cannot be in pe_failures: it anchors termination "
                    "detection (token regeneration and the declare broadcast)"
                )
            if op_timeout is None:
                # Must comfortably exceed one serialized round trip, and
                # stay far below any useful quarantine/token timescale.
                rtt = 2.0 * (latency.alpha_sw + latency.half_rtt_inter)
                op_timeout = max(50.0 * rtt, 20e-6)
            if token_timeout is None:
                # A full ring round: one hop + worker service latency per
                # PE, with generous slack for retry/backoff storms.
                token_timeout = 4.0 * npes * max(
                    op_timeout, self.worker_config.steal_backoff_max
                )
            if self.queue_config.sdc_lock_lease is None:
                # A lossy fabric can drop the unlock of SDC's swap-lock (or
                # kill its holder); without a lease nothing ever breaks
                # that lock and the run cannot terminate.  Four
                # op_timeouts: the timestamp in a lease word is taken when
                # the lock CAS is issued, and a live holder's last write
                # under the lock (the tail put) is applied at most three
                # timed ops later — lock, metadata get, put, each applied
                # within one op_timeout or never — plus their return
                # legs.  No holder that can still write is ever broken,
                # and a wedged lock costs its thieves a few retries' time.
                self.queue_config = replace(
                    self.queue_config, sdc_lock_lease=4.0 * op_timeout
                )
        self.fault_plan = fault_plan if faulty else None
        self.op_timeout = op_timeout

        if isinstance(scheduler, str):
            from ..fabric.scheduler import make_scheduler

            scheduler = make_scheduler(scheduler, seed=seed)
        self.scheduler = scheduler

        self.ctx = ShmemCtx(
            npes,
            latency=latency,
            pes_per_node=pes_per_node,
            fault_plan=fault_plan,
            op_timeout=op_timeout,
            scheduler=scheduler,
            topology=topology,
        )
        self.queue_system = protocol.queue_system(self.ctx, self.queue_config)
        if termination == "ring":
            self.term_system = TerminationSystem(
                self.ctx,
                faults=self.ctx.faults,
                token_timeout=token_timeout if token_timeout is not None else 1e-3,
            )
        elif termination == "tree":
            self.term_system = TreeTerminationSystem(self.ctx)
        else:
            raise ValueError(
                f"termination must be 'ring' or 'tree', got {termination!r}"
            )
        # Lifelines deliver work through the inbox, so they imply it.
        self.inbox_system = self.lifeline_system = None
        if remote_spawn or lifelines:
            from .inbox import InboxSystem

            self.inbox_system = InboxSystem(
                self.ctx, inbox_capacity, self.queue_config.task_size
            )
        if lifelines:
            from .lifeline import LifelineConfig, LifelineSystem

            self.lifeline_system = LifelineSystem(self.ctx, faults=self.ctx.faults)
            lifeline_config = lifeline_config or LifelineConfig()
        self.lifeline_config = lifeline_config

        self.workers: list[Worker] = []
        for rank in range(npes):
            queue = self.queue_system.handle(rank)
            damping = (
                DampingTracker(
                    npes,
                    threshold=self.queue_config.damping_threshold,
                    enabled=self.worker_config.damping,
                )
                if protocol.supports_damping
                else None
            )
            selector = (
                make_selector(victim, npes, rank, seed, self.ctx.topology)
                if npes > 1
                else None
            )
            if selector is not None and self.ctx.faults is not None:
                selector = QuarantineSelector(
                    selector,
                    clock=lambda: self.ctx.engine.now,
                    quarantine_after=self.worker_config.quarantine_after,
                    quarantine_time=self.worker_config.quarantine_time,
                )
            self.workers.append(
                Worker(
                    rank=rank,
                    npes=npes,
                    queue=queue,
                    registry=registry,
                    selector=selector,
                    termination=self.term_system.handle(rank),
                    config=self.worker_config,
                    task_size=self.queue_config.task_size,
                    inbox=(
                        self.inbox_system.handle(rank)
                        if self.inbox_system
                        else None
                    ),
                    lifeline=(
                        self.lifeline_system.handle(rank, self.lifeline_config)
                        if self.lifeline_system
                        else None
                    ),
                    seed=seed,
                    damping=damping,
                )
            )
        self.oracle: PoolOracle | None = None
        if oracle:
            from .oracle import PoolOracle

            self.oracle = PoolOracle(self)
            self.oracle.attach()
        self._ran = False

    def seed(self, rank: int, tasks: list[Task]) -> None:
        """Seed initial tasks onto PE ``rank`` before running."""
        if self._ran:
            raise RuntimeError("pool already ran")
        self.workers[rank].seed(tasks)

    def seed_round_robin(self, tasks: list[Task]) -> None:
        """Distribute seed tasks cyclically across all PEs."""
        for i, t in enumerate(tasks):
            self.workers[i % self.npes].seed([t])

    def start_workers(self) -> dict:
        """Spawn every PE's worker without running the engine
        (:meth:`run` does both; a caller stepping the engine itself with
        ``ctx.run(until=)`` starts here)."""
        if self._ran:
            raise RuntimeError("pool already ran")
        self._ran = True
        procs_by_pe = {}
        for rank, worker in enumerate(self.workers):
            gen = worker.run()
            if self.oracle is not None:
                gen = self.oracle.watch(rank, gen)
            procs_by_pe[rank] = self.ctx.engine.spawn(gen, name=f"pe{rank}")
        faults = self.ctx.faults
        if faults is not None:
            faults.schedule_failures(self.ctx.engine, procs_by_pe)
        return procs_by_pe

    def run(self) -> RunStats:
        """Execute to global termination; returns aggregated statistics."""
        self.start_workers()
        faults = self.ctx.faults
        end = self.ctx.run()
        for w in self.workers:
            if faults is not None and faults.is_dead(w.rank, end):
                continue  # a fail-stopped PE's mid-protocol state is moot
            w.queue.invariants()
        if self.oracle is not None:
            self.oracle.check_final()
        for w in self.workers:
            w.stats.locks_recovered = getattr(w.queue, "locks_recovered", 0)
            if isinstance(w.selector, QuarantineSelector):
                w.stats.quarantines = w.selector.quarantines
        return RunStats(
            npes=self.npes,
            runtime=end,
            workers=[w.stats for w in self.workers],
            comm=self.ctx.metrics.snapshot(),
            faults=faults.snapshot() if faults is not None else {},
        )


def run_pool(
    npes: int,
    registry: TaskRegistry,
    seeds: list[Task],
    impl: str = "sws",
    **kwargs,
) -> RunStats:
    """One-shot convenience: build a pool, seed PE 0, run it."""
    pool = TaskPool(npes, registry, impl=impl, **kwargs)
    pool.seed(0, seeds)
    return pool.run()
