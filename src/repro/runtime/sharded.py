"""Sharded task-pool runner: one job across N conservative shard engines.

:class:`ShardedTaskPool` is the sharded counterpart of
:class:`~repro.runtime.pool.TaskPool`: same construction arguments plus
``nshards``, same :class:`~repro.runtime.stats.RunStats` out.  The job's
PEs are partitioned into contiguous blocks; each block runs inside its
own :class:`~repro.runtime.pool.TaskPool` bound to a shard (its own
engine + calendar queue), and the shards advance in conservative
lock-step time windows, all in this process
(:func:`repro.fabric.sharding.run_window_loop`).

``nshards=1`` is special-cased to a plain ``TaskPool`` — no router, no
window loop, today's engine loop unchanged — so single-shard runs stay
bit-identical to the classic path.  What a multi-shard run guarantees
relative to it is stated in ``docs/sharding.md``.

Every shard constructs the *full* job (all queues, all worker objects)
— construction is deterministic, so all shards agree on the symmetric
heap layout — but spawns only its own PEs.  Remote heap rows are stale
replicas; all access to them routes through the NIC's shard router.
"""

from __future__ import annotations

from typing import Any

from ..fabric.latency import EDR_INFINIBAND, LatencyModel
from ..fabric.sharding import (
    ExchangeStats,
    ShardBinding,
    ShardPlan,
    barrier_cost_ticks,
    check_shardable,
    run_window_loop,
)
from .oracle import check_merged_conservation
from .pool import TaskPool, resolved_latency
from .protocols import get_protocol
from .registry import TaskRegistry
from .stats import RunStats
from .task import Task


class ShardedTaskPool:
    """One simulated work-stealing job run across N shard engines."""

    def __init__(
        self,
        npes: int,
        registry: TaskRegistry,
        nshards: int,
        impl: str = "sws",
        latency: LatencyModel = EDR_INFINIBAND,
        oracle: bool = False,
        **pool_kwargs: Any,
    ) -> None:
        self.plan = ShardPlan(npes, nshards)
        self.npes = npes
        self.nshards = nshards
        self.impl = impl
        self.registry = registry
        self.oracle = oracle
        self._pool_kwargs = dict(pool_kwargs)
        self._pool_kwargs["latency"] = latency
        self.protocol = get_protocol(impl)
        #: The window width derives from the latency the pool will
        #: *actually* use (tiered protocols may swap presets in).
        self.latency = resolved_latency(
            impl, latency, pool_kwargs.get("topology")
        )
        if nshards > 1:
            if not self.protocol.shardable:
                raise ValueError(
                    f"protocol {impl!r} cannot run sharded: its steal "
                    f"path relies on shared-memory bookkeeping across "
                    f"PEs (reads remote heap rows without NIC "
                    f"mediation), which stale per-shard replicas break. "
                    f"Use --shards 1 or a shardable protocol."
                )
            self.window_ticks = check_shardable(self.latency)
        else:
            self.window_ticks = 0  # single shard: classic engine loop
        self._seeds: list[tuple[int, list[Task]]] = []
        self._round_robin: list[Task] = []
        self._ran = False
        #: Coordinator counters (ExchangeStats) after a multi-shard
        #: :meth:`run`; None for nshards=1.
        self.exchange: ExchangeStats | None = None
        #: Engine events summed across shards, set by :meth:`run`.
        self.events_processed = 0

    # ------------------------------------------------------------------
    def seed(self, rank: int, tasks: list[Task]) -> None:
        """Seed initial tasks onto PE ``rank`` before running."""
        if self._ran:
            raise RuntimeError("pool already ran")
        self._seeds.append((rank, list(tasks)))

    def seed_round_robin(self, tasks: list[Task]) -> None:
        """Distribute seed tasks cyclically across all PEs."""
        if self._ran:
            raise RuntimeError("pool already ran")
        self._round_robin.extend(tasks)

    # ------------------------------------------------------------------
    def _build_pool(self, shard_id: int | None) -> TaskPool:
        """Construct one shard's pool (or the classic pool for None).

        Every shard applies *all* seeds: seeding writes through local
        heap state, which is only authoritative on the owning shard, but
        applying it everywhere keeps construction identical across
        shards (same layout, same initial words).
        """
        shard = (
            None if shard_id is None else ShardBinding(self.plan, shard_id)
        )
        pool = TaskPool(
            self.npes,
            self.registry,
            impl=self.impl,
            oracle=self.oracle,
            shard=shard,
            **self._pool_kwargs,
        )
        for rank, tasks in self._seeds:
            pool.seed(rank, tasks)
        if self._round_robin:
            pool.seed_round_robin(self._round_robin)
        return pool

    def run(self) -> RunStats:
        """Execute to global termination; returns merged statistics."""
        if self._ran:
            raise RuntimeError("pool already ran")
        self._ran = True
        if self.nshards == 1:
            pool = self._build_pool(None)
            stats = pool.run()
            self.events_processed = pool.ctx.engine.events_processed
            stats.sharding = self._sharding_stats()
            return stats
        pools = [self._build_pool(s) for s in range(self.nshards)]
        for pool in pools:
            pool.start_workers()
        self.exchange = run_window_loop(
            [pool.ctx for pool in pools],
            window_ticks=self.window_ticks,
            npes=self.npes,
            barrier_cost=barrier_cost_ticks(self.latency, self.npes),
        )
        return self._merge([pool.shard_result() for pool in pools])

    # ------------------------------------------------------------------
    def _sharding_stats(self) -> dict:
        """The sharding block every RunStats from this pool carries."""
        out = {"nshards": self.nshards}
        if self.exchange is not None:
            out.update(self.exchange.as_dict())
        return out

    def _merge(self, results: list[dict]) -> RunStats:
        """Fold per-shard payloads into one job-wide RunStats."""
        check_merged_conservation(
            [r["books"] for r in results],
            exactly_once=self.protocol.semantics.exactly_once,
        )
        workers = [w for r in results for w in r["workers"]]
        workers.sort(key=lambda w: w.rank)
        comm: dict[str, int] = {}
        for r in results:
            for key, val in r["comm"].items():
                comm[key] = comm.get(key, 0) + val
        self.events_processed = sum(r["events"] for r in results)
        return RunStats(
            npes=self.npes,
            runtime=max(r["end"] for r in results),
            workers=workers,
            comm=comm,
            faults={},
            sharding=self._sharding_stats(),
        )


def run_sharded_pool(
    npes: int,
    registry: TaskRegistry,
    seeds: list[Task],
    nshards: int,
    impl: str = "sws",
    **kwargs: Any,
) -> RunStats:
    """One-shot convenience: build a sharded pool, seed PE 0, run it."""
    pool = ShardedTaskPool(npes, registry, nshards, impl=impl, **kwargs)
    pool.seed(0, seeds)
    return pool.run()
