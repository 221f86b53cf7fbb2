"""Synthetic steal-latency probe (the Figure-6 microbenchmark).

Figure 6 compares the latency of a *single steal operation* between SDC
and SWS across steal volumes (2–1024 tasks) and task sizes (24 B and
192 B).  This module builds the minimal scenario: a victim PE with a
preloaded, fully released queue, and one thief that performs exactly one
steal while the victim stays passive — isolating protocol latency from
load-balancing dynamics.

To make a single steal-half operation take exactly ``volume`` tasks, the
victim is preloaded with ``4 * volume`` tasks: its release exposes half
(``2 * volume``) and the steal-half thief claims half of that.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import QueueConfig
from ..core.results import StealResult
from ..fabric.latency import EDR_INFINIBAND, LatencyModel
from ..runtime.task import Task
from ..shmem.api import ShmemCtx


@dataclass
class StealProbeResult:
    """Outcome of one single-steal measurement."""

    impl: str
    volume: int          # tasks requested (and actually stolen)
    task_size: int       # record bytes
    steal_seconds: float # latency of the steal operation
    comms: dict[str, int]

    @property
    def stolen(self) -> int:
        """Tasks actually stolen (equals the requested volume)."""
        return self.volume


def measure_single_steal(
    impl: str,
    volume: int,
    task_size: int,
    latency: LatencyModel = EDR_INFINIBAND,
    qsize: int | None = None,
) -> StealProbeResult:
    """Measure one steal of ``volume`` tasks of ``task_size`` bytes.

    Builds a fresh two-PE job, preloads PE 0 with ``2 * volume`` released
    tasks, lets PE 1 steal once, and returns the steal's virtual-time
    latency plus the exact communication counts it issued.

    ``impl`` may be any protocol registered in
    :mod:`repro.runtime.protocols`.  The fence-free multiplicity deque
    always moves exactly one task per steal, so its probe requires (and
    reports) ``volume == 1``.
    """
    from ..runtime.protocols import get_protocol

    try:
        protocol = get_protocol(impl)
    except KeyError as exc:
        raise ValueError(str(exc)) from None
    if volume < 1:
        raise ValueError(f"volume must be >= 1, got {volume}")
    if not protocol.steal_half and volume != 1:
        raise ValueError(
            f"{impl} steals exactly one task, got volume={volume}"
        )
    preload = 4 * volume
    qsize = qsize or max(256, 1 << (preload - 1).bit_length())
    cfg = QueueConfig(qsize=qsize, task_size=task_size)
    ctx = ShmemCtx(2, latency=latency)
    system = protocol.queue_system(ctx, cfg)
    victim_q = system.handle(0)
    thief_q = system.handle(1)

    out: dict[str, object] = {}

    def victim() -> object:
        victim_q.push([Task(0)] * preload)   # records of bytes(task_size)
        yield from victim_q.release()
        out["released"] = True

    def thief() -> object:
        # Wait for the victim's release to land (its process runs first at
        # t=0, so one tick suffices; poll defensively anyway).
        from ..fabric.engine import Delay

        while "released" not in out:
            yield Delay(1e-7)
        before = ctx.metrics.snapshot()
        t0 = ctx.engine.now
        result: StealResult = yield from thief_q.steal(0)
        out["latency"] = ctx.engine.now - t0
        out["comms"] = ctx.metrics.delta(before)
        out["result"] = result

    ctx.engine.spawn(victim(), "victim")
    ctx.engine.spawn(thief(), "thief")
    ctx.run()

    result = out["result"]
    if not result.success or result.ntasks != volume:
        raise RuntimeError(
            f"probe expected to steal {volume}, got {result.status} "
            f"ntasks={result.ntasks}"
        )
    return StealProbeResult(
        impl=impl,
        volume=volume,
        task_size=task_size,
        steal_seconds=float(out["latency"]),
        comms={k: v for k, v in out["comms"].items() if v},
    )


def steal_volume_sweep(
    volumes: list[int] | None = None,
    task_sizes: tuple[int, ...] = (24, 192),
    latency: LatencyModel = EDR_INFINIBAND,
) -> list[StealProbeResult]:
    """The full Figure-6 grid: both impls × task sizes × volumes."""
    volumes = volumes or [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    results = []
    for impl in ("sdc", "sws"):
        for ts in task_sizes:
            for v in volumes:
                results.append(measure_single_steal(impl, v, ts, latency=latency))
    return results
