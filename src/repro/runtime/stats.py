"""Per-worker and per-run statistics.

The paper's evaluation (Figs. 7e/7f/8e/8f) splits load-balancer overhead
into *steal time* — time spent in successful steal operations — and
*search time* — time spent looking for work, including failed steal
attempts.  Workers accumulate both, along with task counts and queue-
management overheads, and :class:`RunStats` aggregates them into the
series the figures plot.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields

_U64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """Splitmix64 finalizer: an order-independent task fingerprint, the
    same on every substrate."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return (x ^ (x >> 31)) & _U64


class QuantileSketch:
    """Streaming quantile sketch with bounded *relative* rank error.

    DDSketch-style logarithmic bucketing: value ``v > 0`` lands in
    bucket ``ceil(log_base(v))`` with ``base = (1+γ)/(1-γ)``, so every
    value in a bucket is within relative error γ of the bucket's
    midpoint estimate.  Inserts and quantile queries are O(1)-ish;
    sketches **merge exactly** (bucket-count addition), so per-PE
    latency sketches combine into the run-wide sketch with zero loss —
    ``merge(a, b).quantile(q) == sketch(a ++ b).quantile(q)`` for every
    q, which the property suite pins.

    Latencies here are integer ticks (or nanoseconds on the real
    backends); non-positive values collapse into a dedicated zero
    bucket.
    """

    __slots__ = ("gamma", "_log_base", "buckets", "zero_count", "count",
                 "min_value", "max_value", "total")

    def __init__(self, rel_err: float = 0.01) -> None:
        if not 0 < rel_err < 1:
            raise ValueError(f"rel_err must be in (0, 1), got {rel_err}")
        self.gamma = rel_err
        self._log_base = math.log((1 + rel_err) / (1 - rel_err))
        self.buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.min_value = math.inf
        self.max_value = -math.inf
        self.total = 0.0

    def add(self, value: float, count: int = 1) -> None:
        """Insert ``value`` (``count`` times) into the sketch."""
        if count <= 0:
            return
        self.count += count
        self.total += value * count
        if value < self.min_value:
            self.min_value = value
        if value > self.max_value:
            self.max_value = value
        if value <= 0:
            self.zero_count += count
            return
        idx = math.ceil(math.log(value) / self._log_base)
        self.buckets[idx] = self.buckets.get(idx, 0) + count

    def _estimate(self, idx: int) -> float:
        # Midpoint of bucket (base^(i-1), base^i] in the relative sense.
        base = math.exp(self._log_base)
        return 2.0 * base ** idx / (base + 1.0)

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` (0 ≤ q ≤ 1), within relative error γ."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # 0-based rank of the order statistic we want.
        rank = min(self.count - 1, max(0, math.ceil(q * self.count) - 1))
        if rank < self.zero_count:
            return 0.0
        seen = self.zero_count
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if rank < seen:
                return self._estimate(idx)
        return self._estimate(max(self.buckets))  # pragma: no cover

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (lossless for equal γ)."""
        if abs(other.gamma - self.gamma) > 1e-12:
            raise ValueError(
                f"cannot merge sketches with different rel_err "
                f"({self.gamma} vs {other.gamma})"
            )
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    def percentiles(self) -> dict[str, float]:
        """The serving headline trio: p50 / p99 / p999."""
        return {
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "p999": self.quantile(0.999),
        }

    def to_dict(self) -> dict:
        """JSON-safe form."""
        return {
            "gamma": self.gamma,
            "buckets": {str(k): v for k, v in self.buckets.items()},
            "zero_count": self.zero_count,
            "count": self.count,
            "min": self.min_value if self.count else None,
            "max": self.max_value if self.count else None,
            "total": self.total,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QuantileSketch":
        sk = cls(rel_err=payload["gamma"])
        sk.buckets = {int(k): v for k, v in payload["buckets"].items()}
        sk.zero_count = payload["zero_count"]
        sk.count = payload["count"]
        sk.min_value = (
            payload["min"] if payload.get("min") is not None else math.inf
        )
        sk.max_value = (
            payload["max"] if payload.get("max") is not None else -math.inf
        )
        sk.total = payload["total"]
        return sk


@dataclass
class ServingStats:
    """Open-system results of one ``serve`` run.

    ``emitted`` is the arrival process's ledger; ``injected`` + ``shed``
    must equal it (the open-system conservation oracle).  ``latency``
    holds completion latencies — enqueue→complete ticks on the fabric,
    due→execute nanoseconds on mp — and ``slo_attained`` counts
    completions within ``slo_ticks``.  Each completion is booked once, by
    :meth:`complete`; books kept apart (one per mp PE) fold by
    :meth:`merge`.
    """

    emitted: int = 0
    injected: int = 0
    shed: int = 0
    completed: int = 0
    slo_ticks: int = 0              # 0 = no SLO configured
    slo_attained: int = 0
    checksum: int = 0               # xor-mix64 over completed seqs
    latency: QuantileSketch = field(default_factory=QuantileSketch)

    def complete(self, seq: int, latency: int) -> None:
        """Book arrival ``seq``'s completion after ``latency``."""
        self.latency.add(latency)
        self.completed += 1
        if self.slo_ticks and latency <= self.slo_ticks:
            self.slo_attained += 1
        self.checksum ^= mix64(seq)

    def merge(self, other: "ServingStats") -> None:
        """Fold ``other``'s books, kept under the same SLO, into these."""
        self.emitted += other.emitted
        self.injected += other.injected
        self.shed += other.shed
        self.completed += other.completed
        self.slo_attained += other.slo_attained
        self.checksum ^= other.checksum
        self.latency.merge(other.latency)

    @property
    def slo_fraction(self) -> float:
        """Fraction of completed tasks inside the SLO (1.0 if no SLO)."""
        if not self.slo_ticks or not self.completed:
            return 1.0
        return self.slo_attained / self.completed

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.emitted if self.emitted else 0.0

    def to_dict(self) -> dict:
        return {
            "emitted": self.emitted,
            "injected": self.injected,
            "shed": self.shed,
            "completed": self.completed,
            "slo_ticks": self.slo_ticks,
            "slo_attained": self.slo_attained,
            "checksum": self.checksum,
            "latency": self.latency.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ServingStats":
        payload = dict(payload)
        latency = QuantileSketch.from_dict(payload.pop("latency"))
        return cls(latency=latency, **payload)


@dataclass
class WorkerStats:
    """Counters accumulated by one worker PE."""

    rank: int = 0
    tasks_executed: int = 0
    tasks_spawned: int = 0
    task_time: float = 0.0          # virtual seconds inside task bodies
    steal_time: float = 0.0         # successful steal operations (Figs. 7e/8e)
    search_time: float = 0.0        # failed attempts + victim hunting (7f/8f)
    acquire_time: float = 0.0
    release_time: float = 0.0
    steals_ok: int = 0
    steals_failed: int = 0
    releases: int = 0               # split-point exposures performed
    acquires: int = 0               # split-point reclaims performed
    tasks_stolen: int = 0           # tasks this PE stole from others
    probes: int = 0                 # damping probe count
    termination_time: float = 0.0   # token handling + final drain
    #: Histogram of successful steal volumes: {block size: count}.  The
    #: steal-half schedule makes this roughly geometric.
    steal_volumes: dict[int, int] = field(default_factory=dict)
    #: Virtual time this PE executed its first task (-1.0 if it never did)
    #: — the per-PE work-dispersal latency.
    first_task_time: float = -1.0
    # -- fault/recovery counters (all zero on a reliable fabric) --------
    steal_timeouts: int = 0         # steal ops that raised FabricTimeoutError
    steal_retries: int = 0          # same-victim retries after a timeout
    steals_abandoned: int = 0       # claimed blocks given up (victim died)
    quarantines: int = 0            # victims this PE quarantined
    locks_recovered: int = 0        # expired SDC lock leases broken open

    def note_steal_volume(self, ntasks: int) -> None:
        """Record one successful steal's block size."""
        self.steal_volumes[ntasks] = self.steal_volumes.get(ntasks, 0) + 1

    @property
    def steal_attempts(self) -> int:
        """All claiming steal attempts, successful or not."""
        return self.steals_ok + self.steals_failed

    @property
    def overhead_time(self) -> float:
        """Total load-balancer overhead this worker accumulated."""
        return (
            self.steal_time
            + self.search_time
            + self.acquire_time
            + self.release_time
        )


@dataclass
class RunStats:
    """Aggregated results of one pool execution."""

    npes: int
    runtime: float                      # virtual wall-clock of the run
    workers: list[WorkerStats] = field(default_factory=list)
    comm: dict[str, int] = field(default_factory=dict)
    #: Fabric-level fault counters (``FaultInjector.snapshot()``); empty
    #: when the run used a reliable fabric.
    faults: dict[str, int] = field(default_factory=dict)
    #: Open-system serving results (``ServingStats``); ``None`` for the
    #: classic closed-batch runs.
    serving: ServingStats | None = None

    @property
    def total_tasks(self) -> int:
        """Tasks executed across all PEs."""
        return sum(w.tasks_executed for w in self.workers)

    @property
    def total_spawned(self) -> int:
        """Tasks ever enqueued (seeds + dynamic spawns)."""
        return sum(w.tasks_spawned for w in self.workers)

    @property
    def throughput(self) -> float:
        """Tasks completed per second of virtual time (Figs. 7a/8a)."""
        return self.total_tasks / self.runtime if self.runtime > 0 else 0.0

    @property
    def total_task_time(self) -> float:
        """Sum of task compute time across PEs."""
        return sum(w.task_time for w in self.workers)

    @property
    def parallel_efficiency(self) -> float:
        """Measured vs ideal runtime (Figs. 7c/8c).

        Ideal execution spreads total task compute time perfectly over
        all PEs with zero balancing overhead.
        """
        if self.runtime <= 0:
            return 0.0
        ideal = self.total_task_time / self.npes
        return ideal / self.runtime

    @property
    def total_steal_time(self) -> float:
        """Aggregate successful-steal time (Figs. 7e/8e)."""
        return sum(w.steal_time for w in self.workers)

    @property
    def total_search_time(self) -> float:
        """Aggregate work-search time (Figs. 7f/8f)."""
        return sum(w.search_time for w in self.workers)

    @property
    def total_steals(self) -> int:
        """Successful steal operations across the run."""
        return sum(w.steals_ok for w in self.workers)

    @property
    def total_failed_steals(self) -> int:
        """Failed steal attempts across the run."""
        return sum(w.steals_failed for w in self.workers)

    @property
    def total_steal_timeouts(self) -> int:
        """Timed-out steal operations across the run."""
        return sum(w.steal_timeouts for w in self.workers)

    @property
    def total_steal_retries(self) -> int:
        """Post-timeout same-victim retries across the run."""
        return sum(w.steal_retries for w in self.workers)

    @property
    def total_quarantines(self) -> int:
        """Victim quarantine events across the run."""
        return sum(w.quarantines for w in self.workers)

    @property
    def total_locks_recovered(self) -> int:
        """Expired SDC lock leases broken open across the run."""
        return sum(w.locks_recovered for w in self.workers)

    @property
    def total_steals_abandoned(self) -> int:
        """Claimed-then-abandoned steal blocks across the run."""
        return sum(w.steals_abandoned for w in self.workers)

    def steal_volume_histogram(self) -> dict[int, int]:
        """Merged histogram of successful steal block sizes."""
        out: dict[int, int] = {}
        for w in self.workers:
            for size, count in w.steal_volumes.items():
                out[size] = out.get(size, 0) + count
        return out

    @property
    def dispersal_time(self) -> float:
        """Time until the *last* participating PE got its first task.

        The work-dispersal latency the BPC benchmark stresses — how long
        the load balancer takes to put everyone to work.  0.0 when no PE
        executed anything.
        """
        times = [w.first_task_time for w in self.workers if w.first_task_time >= 0]
        return max(times) if times else 0.0

    def balance_ratio(self) -> float:
        """max/mean of per-PE executed task counts (1.0 = perfect)."""
        counts = [w.tasks_executed for w in self.workers]
        mean = sum(counts) / len(counts) if counts else 0.0
        return max(counts) / mean if mean > 0 else 0.0

    @property
    def idle_fraction(self) -> float:
        """Fraction of total PE-time not spent computing or balancing.

        ``1 - (task time + balancing overhead) / (P * runtime)`` — the
        share of machine time lost to waiting (work droughts, backoff,
        termination detection).
        """
        if self.runtime <= 0 or self.npes == 0:
            return 0.0
        busy = sum(w.task_time + w.overhead_time for w in self.workers)
        frac = 1.0 - busy / (self.npes * self.runtime)
        return max(0.0, min(1.0, frac))

    def to_json(self) -> str:
        """Serialize the full run record (for archiving raw results).

        The ``faults`` key is omitted for reliable-fabric runs so their
        archives stay byte-identical to pre-fault-support ones.
        """
        payload = {
            "npes": self.npes,
            "runtime": self.runtime,
            "workers": [asdict(w) for w in self.workers],
            "comm": self.comm,
        }
        if self.faults:
            payload["faults"] = self.faults
        if self.serving is not None:
            payload["serving"] = self.serving.to_dict()
        for f in fields(self)[len(fields(RunStats)):]:  # a subclass's books
            payload[f.name] = getattr(self, f.name)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RunStats":
        """Inverse of :meth:`to_json`."""
        payload = json.loads(text)
        workers = []
        for w in payload["workers"]:
            # JSON stringifies histogram keys; restore them.
            w["steal_volumes"] = {
                int(k): v for k, v in w.get("steal_volumes", {}).items()
            }
            workers.append(WorkerStats(**w))
        own = [f.name for f in fields(cls)[len(fields(RunStats)):]]
        return cls(
            **{k: tuple(v) if isinstance(v, list) else v  # JSON has no tuple
               for k, v in payload.items() if k in own},
            npes=payload["npes"],
            runtime=payload["runtime"],
            workers=workers,
            comm=payload.get("comm", {}),
            faults=payload.get("faults", {}),
            serving=(
                ServingStats.from_dict(payload["serving"])
                if "serving" in payload
                else None
            ),
        )

    def summary(self) -> dict[str, float]:
        """Flat dict of the headline numbers (for reports and CSV)."""
        out = self._summary_base()
        if self.serving is not None:
            pct = self.serving.latency.percentiles()
            out.update(
                {
                    "arrivals_emitted": self.serving.emitted,
                    "arrivals_injected": self.serving.injected,
                    "arrivals_shed": self.serving.shed,
                    "serving_completed": self.serving.completed,
                    "latency_p50": pct["p50"],
                    "latency_p99": pct["p99"],
                    "latency_p999": pct["p999"],
                    "slo_fraction": self.serving.slo_fraction,
                }
            )
        return out

    def _summary_base(self) -> dict[str, float]:
        return {
            "npes": self.npes,
            "runtime": self.runtime,
            "tasks": self.total_tasks,
            "throughput": self.throughput,
            "efficiency": self.parallel_efficiency,
            "steal_time": self.total_steal_time,
            "search_time": self.total_search_time,
            "steals_ok": self.total_steals,
            "steals_failed": self.total_failed_steals,
            "comm_total": self.comm.get("total", 0),
            "comm_blocking": self.comm.get("blocking", 0),
            "comm_bytes": self.comm.get("bytes", 0),
            "steal_timeouts": self.total_steal_timeouts,
            "steal_retries": self.total_steal_retries,
            "quarantines": self.total_quarantines,
            "locks_recovered": self.total_locks_recovered,
            "steals_abandoned": self.total_steals_abandoned,
            "dropped_ops": self.faults.get("dropped_ops", 0),
            "pes_killed": self.faults.get("pes_killed", 0),
        }
