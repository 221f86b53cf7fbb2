"""Open-system serving over the real-thread substrate.

The threads backend has no virtual clock, so the arrival trace is
replayed by *order*, not by tick: the owner thread doubles as the
arrival feeder, releasing the trace's tasks (their sequence numbers) in
batches through the shim protocol while thief threads steal under
genuine preemption.  Latency is the **claim latency** — wall-clock
nanoseconds from a task's release (injection) to the moment a thief's
claim copies it out (or the owner re-absorbs it) — the share of serving
latency this substrate can actually measure, since there is no simulated
execution.  Checksums and counts are deterministic (they depend only on
the task *set*, not the interleaving), which is what the cross-backend
conformance suite pins against the fabric and mp runs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from ..capabilities import check
from ..mp.queue import in_process_queue
from ..runtime.arrivals import ArrivalProcess, parse_arrival_spec, serving_checksum
from ..runtime.stats import QuantileSketch, ServingStats
from .protocol import race


@dataclass
class ThreadServeResult:
    """One serving run's outcome on the threads backend."""

    serving: ServingStats
    loot: list[list[int]] = field(default_factory=list)
    kept: list[int] = field(default_factory=list)


class _StampedKept(list):
    """``owner_kept`` stand-in: what ``release`` / ``acquire`` / ``drain``
    re-absorb completes at the absorbing call's time."""

    def __init__(self, note_complete) -> None:
        super().__init__()
        self._note = note_complete

    def extend(self, tasks) -> None:
        self._note(tasks, time.monotonic_ns())
        super().extend(tasks)


def run_serve_threads(
    arrival: str | ArrivalProcess,
    duration_s: float,
    seed: int = 0,
    impl: str = "sws",
    nthieves: int = 4,
    slo_s: float = 0.0,
    nbatches: int = 16,
    pace_s: float = 2e-5,
    acquires: int = 2,
) -> ThreadServeResult:
    """Replay one arrival trace through an in-process shim queue.

    Every emitted arrival is injected (no shedding on this substrate);
    the disjoint union of thief loot and owner-kept tasks must equal the
    full trace, which :class:`ServingStats`'s books and checksum record.
    """
    check(impl, "threads", ("serving",), nthieves + 1)
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    n = process.emitted
    sketch = QuantileSketch()
    slo_ns = int(slo_s * 1e9)
    slo_attained = 0
    release_ns: dict[int, int] = {}
    lat_lock = threading.Lock()

    def note_complete(tasks: list[int], now: int) -> None:
        nonlocal slo_attained
        with lat_lock:
            for s in tasks:
                lat = now - release_ns[s]
                sketch.add(lat)
                if slo_ns and lat <= slo_ns:
                    slo_attained += 1

    def stamp_release(start: int, count: int) -> None:
        now = time.monotonic_ns()
        for s in range(start, start + count):
            release_ns[s] = now

    # The feeder: inject the trace in arrival order, batch by batch.
    with in_process_queue(impl, range(n)) as queue:
        queue.owner_kept = _StampedKept(note_complete)
        loot, kept = race(
            queue, nthieves, max(1, (n + nbatches - 1) // nbatches), acquires,
            pace_s=pace_s, on_release=stamp_release,
            on_claim=lambda idx, res: note_complete(
                res.claimed, time.monotonic_ns()),
        )
        injected = queue.cursor
    kept = list(kept)
    completed = [s for chunk in loot for s in chunk] + kept
    serving = ServingStats(
        emitted=n,
        injected=injected,
        shed=0,
        completed=len(completed),
        slo_ticks=slo_ns,
        slo_attained=slo_attained,
        checksum=serving_checksum(completed),
        latency=sketch,
    )
    return ThreadServeResult(serving=serving, loot=loot, kept=kept)
