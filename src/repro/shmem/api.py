"""OpenSHMEM-flavoured facade over the simulated fabric.

The paper's implementations (both SDC and SWS) are written against
OpenSHMEM; this module provides the same vocabulary so the queue code in
:mod:`repro.core` reads like its C counterpart.  A :class:`ShmemCtx` owns
the engine, symmetric heap, NIC and topology for one simulated job;
:class:`Pe` binds a PE index so queue code doesn't thread ``me`` through
every call.

All communication methods return *request objects* that a simulated
process must ``yield``; local (own-memory) accessors execute immediately
because a PE touching its own symmetric heap is an ordinary load/store.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..fabric.engine import Call, Delay, Engine, Process
from ..fabric.latency import EDR_INFINIBAND, LatencyModel
from ..fabric.memory import SymmetricHeap
from ..fabric.metrics import FabricMetrics
from ..fabric.nic import Nic
from ..fabric.topology import Topology

if TYPE_CHECKING:
    from ..fabric.faults import FaultInjector, FaultPlan
    from ..fabric.scheduler import Scheduler


class ShmemCtx:
    """One simulated OpenSHMEM job: engine + heap + NIC + topology.

    ``fault_plan`` attaches a :class:`~repro.fabric.faults.FaultInjector`
    (exposed as ``ctx.faults``) when the plan is active; ``op_timeout``
    bounds every blocking fabric call (see :class:`~repro.fabric.nic.Nic`).
    Both default to off, leaving the fabric perfectly reliable.

    ``scheduler`` attaches a schedule-exploration policy
    (:mod:`repro.fabric.scheduler`) that breaks same-timestamp event
    ties; ``None`` keeps the engine's bit-identical insertion-order
    fast path.
    """

    def __init__(
        self,
        npes: int,
        latency: LatencyModel = EDR_INFINIBAND,
        pes_per_node: int = 48,
        trace_comm: bool = False,
        jitter_seed: int = 0,
        fault_plan: FaultPlan | None = None,
        op_timeout: float | None = None,
        scheduler: Scheduler | None = None,
        topology: Topology | None = None,
    ) -> None:
        if topology is not None and topology.npes != npes:
            raise ValueError(
                f"topology has {topology.npes} PEs but ctx has {npes}"
            )
        self.npes = npes
        self.engine = Engine(scheduler=scheduler)
        self.heap = SymmetricHeap(npes)
        self.topology = (
            topology
            if topology is not None
            else Topology(npes, pes_per_node=pes_per_node)
        )
        self.metrics = FabricMetrics(npes, trace=trace_comm)
        self.faults: FaultInjector | None = None
        if fault_plan is not None and fault_plan.active:
            from ..fabric.faults import FaultInjector

            self.faults = FaultInjector(fault_plan, npes)
        self.nic = Nic(
            self.engine,
            self.heap,
            self.topology,
            latency,
            self.metrics,
            jitter_seed=jitter_seed,
            faults=self.faults,
            op_timeout=op_timeout,
        )
        self.latency = latency
        self._barrier = _Barrier(self)

    def pe(self, rank: int) -> "Pe":
        """Return a handle bound to PE ``rank``."""
        return Pe(self, rank)

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.engine.now

    def run(self, until: float | None = None) -> float:
        """Run the simulation; returns final virtual time."""
        return self.engine.run(until=until)


class Pe:
    """Per-PE view of the shmem context (OpenSHMEM call vocabulary)."""

    __slots__ = ("ctx", "rank")

    def __init__(self, ctx: ShmemCtx, rank: int) -> None:
        ctx.heap._check_pe(rank)
        self.ctx = ctx
        self.rank = rank

    # -- local, immediate -------------------------------------------------
    def local_load(self, region: str, offset: int) -> int:
        """Read a word from this PE's own symmetric memory (no comm)."""
        return self.ctx.heap.load(self.rank, region, offset)

    def local_store(self, region: str, offset: int, value: int) -> None:
        """Write a word to own memory (no comm)."""
        self.ctx.heap.store(self.rank, region, offset, value)

    def local_fetch_add(self, region: str, offset: int, delta: int) -> int:
        """Processor atomic on own memory (no comm; CPU atomics are ~free
        at the fabric's time scale)."""
        return self.ctx.heap.fetch_add(self.rank, region, offset, delta)

    def local_swap(self, region: str, offset: int, value: int) -> int:
        """Processor atomic swap on own memory (no comm)."""
        return self.ctx.heap.swap(self.rank, region, offset, value)

    def local_cas(self, region: str, offset: int, expected: int, desired: int) -> int:
        """Processor compare-and-swap on own memory (no comm)."""
        return self.ctx.heap.compare_swap(self.rank, region, offset, expected, desired)

    def local_read_bytes(self, region: str, offset: int, count: int) -> bytes:
        """Read own payload bytes (no comm)."""
        return self.ctx.heap.read_bytes(self.rank, region, offset, count)

    def local_write_bytes(self, region: str, offset: int, data: bytes) -> None:
        """Write own payload bytes (no comm)."""
        self.ctx.heap.write_bytes(self.rank, region, offset, data)

    # -- remote, yieldable -------------------------------------------------
    def atomic_fetch_add(self, target: int, region: str, offset: int, delta: int) -> Call:
        """``shmem_atomic_fetch_add`` — the SWS claim operation."""
        return self.ctx.nic.amo_fetch_add(self.rank, target, region, offset, delta)

    def atomic_swap(self, target: int, region: str, offset: int, value: int) -> Call:
        """``shmem_atomic_swap`` — SDC lock acquisition."""
        return self.ctx.nic.amo_swap(self.rank, target, region, offset, value)

    def atomic_compare_swap(self, target: int, region: str, offset: int,
                            expected: int, desired: int) -> Call:
        """``shmem_atomic_compare_swap``."""
        return self.ctx.nic.amo_cas(self.rank, target, region, offset, expected, desired)

    def atomic_fetch(self, target: int, region: str, offset: int) -> Call:
        """``shmem_atomic_fetch`` — read-only probe (steal damping)."""
        return self.ctx.nic.amo_fetch(self.rank, target, region, offset)

    def atomic_add_nb(self, target: int, region: str, offset: int, delta: int) -> Call:
        """Non-blocking ``shmem_atomic_add`` — completion signalling."""
        return self.ctx.nic.amo_add_nb(self.rank, target, region, offset, delta)

    def get_word(self, target: int, region: str, offset: int) -> Call:
        """Blocking 8-byte ``shmem_getmem``."""
        return self.ctx.nic.get_word(self.rank, target, region, offset)

    def get_words(self, target: int, region: str, offset: int, count: int) -> Call:
        """Blocking multi-word ``shmem_getmem``."""
        return self.ctx.nic.get_words(self.rank, target, region, offset, count)

    def get_bytes(self, target: int, region: str, offset: int, count: int) -> Call:
        """Blocking ``shmem_getmem`` on payload bytes."""
        return self.ctx.nic.get_bytes(self.rank, target, region, offset, count)

    def put_word(self, target: int, region: str, offset: int, value: int) -> Call:
        """Blocking 8-byte ``shmem_putmem`` (acked)."""
        return self.ctx.nic.put_word(self.rank, target, region, offset, value)

    def put_words(self, target: int, region: str, offset: int, values: list[int]) -> Call:
        """Blocking multi-word put."""
        return self.ctx.nic.put_words(self.rank, target, region, offset, values)

    def put_word_nb(self, target: int, region: str, offset: int, value: int) -> Call:
        """Non-blocking single-word put."""
        return self.ctx.nic.put_word_nb(self.rank, target, region, offset, value)

    def put_bytes_nb(self, target: int, region: str, offset: int, data: bytes) -> Call:
        """Non-blocking payload put."""
        return self.ctx.nic.put_bytes_nb(self.rank, target, region, offset, data)

    def put_signal_nb(
        self,
        target: int,
        region: str,
        offset: int,
        data: bytes,
        sig_region: str,
        sig_offset: int,
        sig_value: int,
    ) -> Call:
        """``shmem_put_signal`` — payload + signal word in one message;
        the signal is ordered after the data at the target."""
        return self.ctx.nic.put_signal_nb(
            self.rank, target, region, offset, data,
            sig_region, sig_offset, sig_value,
        )

    def quiet(self) -> Call:
        """``shmem_quiet`` — fence all outstanding non-blocking ops."""
        return self.ctx.nic.quiet(self.rank)

    def wait_until(self, region: str, offset: int, predicate) -> Call:
        """``shmem_wait_until`` — block until a *local* word satisfies
        ``predicate`` (typically flipped by a remote put/atomic).

        Event-driven: the process is woken by the mutation itself rather
        than polling, paying one injection overhead of wake latency —
        like the hardware wait/wake path OpenSHMEM implementations use.
        Resumes with the word's satisfying value.
        """
        rank = self.rank
        ctx = self.ctx

        def handler(engine, proc) -> None:
            current = ctx.heap.load(rank, region, offset)
            if predicate(current):
                engine.resume(proc, current)
                return

            def waiter(new_value: int) -> bool:
                if predicate(new_value):
                    engine.resume(proc, new_value, delay=ctx.latency.alpha_sw)
                    return True
                return False

            ctx.heap.add_waiter(rank, region, offset, waiter)

        return Call(handler)

    def wait_until_any(self, conditions) -> Call:
        """``shmem_wait_until_any`` — block until any of several local
        words satisfies its predicate.

        ``conditions`` is a list of ``(region, offset, predicate)``.
        Resumes with the index of the first satisfied condition.  Exactly
        one wake fires even if several words change simultaneously.
        """
        if not conditions:
            raise ValueError("wait_until_any needs at least one condition")
        rank = self.rank
        ctx = self.ctx

        def handler(engine, proc) -> None:
            for idx, (region, offset, predicate) in enumerate(conditions):
                if predicate(ctx.heap.load(rank, region, offset)):
                    engine.resume(proc, idx)
                    return

            fired = {"done": False}

            def make_waiter(idx, predicate):
                def waiter(new_value: int) -> bool:
                    if fired["done"]:
                        return True  # deregister stale siblings
                    if predicate(new_value):
                        fired["done"] = True
                        engine.resume(proc, idx, delay=ctx.latency.alpha_sw)
                        return True
                    return False

                return waiter

            for idx, (region, offset, predicate) in enumerate(conditions):
                ctx.heap.add_waiter(
                    rank, region, offset, make_waiter(idx, predicate)
                )

        return Call(handler)

    def barrier_all(self) -> Call:
        """``shmem_barrier_all`` over every PE in the job."""
        return self.ctx._barrier.arrive()

    @staticmethod
    def compute(seconds: float) -> Delay:
        """Local computation for ``seconds`` of virtual time."""
        return Delay(seconds)


class _Barrier:
    """Dissemination-style barrier: all PEs arrive, all release together.

    The release is charged ``ceil(log2(P))`` inter-node hops after the last
    arrival, approximating a dissemination barrier's critical path.
    """

    def __init__(self, ctx: ShmemCtx) -> None:
        self.ctx = ctx
        self._waiting: list[Process] = []

    def arrive(self) -> Call:
        def handler(engine: Engine, proc: Process) -> None:
            self._waiting.append(proc)
            if len(self._waiting) == self.ctx.npes:
                lat = self.ctx.latency
                hops = max(1, math.ceil(math.log2(max(2, self.ctx.npes))))
                cost = hops * (lat.alpha_sw + lat.half_rtt_inter)
                waiters, self._waiting = self._waiting, []
                for p in waiters:
                    engine.resume(p, None, delay=cost)

        return Call(handler)
