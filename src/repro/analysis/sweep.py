"""Process-count sweeps with repetitions — the engine behind Figs. 7 & 8.

A sweep runs one workload under both queue implementations across a list
of PE counts, repeating each cell with different seeds (the paper
averages 10 runs per point; seeds here perturb victim selection, the
physical source of run-to-run variance on the real cluster).

The second half of this module is the **fan-out runner** behind
``python -m repro sweep``: every run in this simulator is deterministic
and independent, so bench scenarios and seed×impl×workload matrix cells
fan out across a :class:`~concurrent.futures.ProcessPoolExecutor` and
land in a content-addressed on-disk cache keyed by
``(job spec, code version)`` — a job re-runs only when its inputs or the
simulator sources change.  See ``docs/performance.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..core.config import QueueConfig
from ..fabric.latency import EDR_INFINIBAND, LatencyModel
from ..runtime.pool import TaskPool
from ..runtime.registry import TaskRegistry
from ..runtime.stats import RunStats
from ..runtime.task import Task
from ..runtime.worker import WorkerConfig

#: A workload factory builds (registry, seed tasks) for one run.
WorkloadFactory = Callable[[], tuple[TaskRegistry, list[Task]]]


@dataclass
class SweepPoint:
    """One completed run within a sweep."""

    impl: str
    npes: int
    rep: int
    seed: int
    stats: RunStats

    def row(self) -> dict[str, float]:
        """Flat record for tables/CSV."""
        out = {"impl": self.impl, "rep": self.rep, "seed": self.seed}
        out.update(self.stats.summary())
        return out


@dataclass
class SweepConfig:
    """Shape of a sweep."""

    npes_list: tuple[int, ...] = (2, 4, 8, 16, 32)
    impls: tuple[str, ...] = ("sdc", "sws")
    reps: int = 3
    base_seed: int = 100
    queue_config: QueueConfig = field(default_factory=QueueConfig)
    worker_config: WorkerConfig = field(default_factory=WorkerConfig)
    latency: LatencyModel = EDR_INFINIBAND
    pes_per_node: int = 48


def run_point(
    factory: WorkloadFactory,
    impl: str,
    npes: int,
    seed: int,
    cfg: SweepConfig,
) -> RunStats:
    """Build and run one pool for one sweep cell."""
    registry, seeds = factory()
    pool = TaskPool(
        npes,
        registry,
        impl=impl,
        queue_config=cfg.queue_config,
        worker_config=cfg.worker_config,
        latency=cfg.latency,
        pes_per_node=cfg.pes_per_node,
        seed=seed,
    )
    pool.seed(0, seeds)
    return pool.run()


def run_sweep(factory: WorkloadFactory, cfg: SweepConfig | None = None) -> list[SweepPoint]:
    """Run the full grid: impls × PE counts × repetitions."""
    cfg = cfg or SweepConfig()
    points: list[SweepPoint] = []
    for impl in cfg.impls:
        for npes in cfg.npes_list:
            for rep in range(cfg.reps):
                seed = cfg.base_seed + rep
                stats = run_point(factory, impl, npes, seed, cfg)
                points.append(SweepPoint(impl, npes, rep, seed, stats))
    return points


# ======================================================================
# Fan-out runner: parallel deterministic jobs + content-addressed cache
# ======================================================================

#: The bench scenarios ``repro sweep`` measures by default — one per
#: ``benchmarks/bench_fig*.py`` figure regeneration, plus the protocol
#: zoo cross-comparison, the 2112-PE jumbo smoke and the serving rows.
BENCH_SCENARIOS: tuple[str, ...] = (
    "fig2", "fig34", "fig5", "fig6", "fig7", "fig8", "protocols",
    "fig7_jumbo", "serving_sws", "serving_sdc",
)

#: Multiprocess-substrate scenarios measured alongside the bench set:
#: (workload, impl, npes, size) — size is ntasks for synthetic, a named
#: UTS tree otherwise.  Small on purpose: CI runners have 2 cores.
MP_SCENARIOS: tuple[tuple, ...] = (
    ("synthetic", "sws", 4, 1200),
    ("uts", "sws", 4, "test_tiny"),
    # Chaos row: rank 1 SIGKILLed holding a stripe lock after its 6th
    # task.  The reported wall is the *recovery* wall (death detection +
    # lease break + scavenge + re-inject), so BENCH_fabric.json tracks
    # recovery latency over time.
    ("synthetic", "sws", 4, 1200, "1@6:lock"),
)

#: Default on-disk cache location (relative to the invoking directory).
DEFAULT_CACHE_DIR = "results/sweep-cache"

#: Environment switch forcing serial execution regardless of ``--jobs``.
SERIAL_ENV = "REPRO_SWEEP_SERIAL"


def code_version() -> str:
    """Content hash of the simulator sources (12 hex chars).

    Hashes every ``.py`` file under ``src/repro`` (path + bytes), so any
    source change — even whitespace — invalidates all cached results.
    Deliberately coarse: correctness over cleverness.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:12]


@dataclass(frozen=True)
class SweepJob:
    """One deterministic, independently executable unit of work.

    ``kind`` is ``"bench"`` (regenerate one experiment scenario),
    ``"cell"`` (one TaskPool run of a named UTS tree) or ``"mp"`` (one
    end-to-end run on the multiprocess shared-memory substrate).  The
    frozen spec is the cache identity — two jobs with equal specs are
    the same job.
    """

    kind: str
    name: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def bench(cls, exp_id: str, scale: str = "quick") -> "SweepJob":
        """A bench scenario: run one registered experiment."""
        return cls("bench", exp_id, (("scale", scale),))

    @classmethod
    def cell(cls, tree: str, impl: str, npes: int, seed: int) -> "SweepJob":
        """One matrix cell: a named UTS tree under one impl/npes/seed."""
        return cls(
            "cell", tree, (("impl", impl), ("npes", npes), ("seed", seed))
        )

    @classmethod
    def mp(cls, workload: str, impl: str, npes: int, size,
           crash: str | None = None) -> "SweepJob":
        """One multiprocess-substrate run (``size``: ntasks or tree).

        ``crash`` is an optional ``"RANK@N:POINT"`` kill spec; a crash
        job measures recovery wall instead of throughput wall and is
        named ``mp_crash_recovery``.
        """
        if crash is None:
            name = f"mp_{workload}_{impl}_n{npes}"
            return cls(
                "mp", name,
                (("workload", workload), ("impl", impl), ("npes", npes),
                 ("size", size)),
            )
        return cls(
            "mp", "mp_crash_recovery",
            (("workload", workload), ("impl", impl), ("npes", npes),
             ("size", size), ("crash", crash)),
        )

    def spec(self) -> dict:
        """JSON-ready canonical description."""
        out = {"kind": self.kind, "name": self.name}
        out.update(self.params)
        return out

    def key(self, version: str) -> str:
        """Content address: hash of the canonical spec + code version."""
        blob = json.dumps(self.spec(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(f"{version}|{blob}".encode()).hexdigest()[:32]

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        if self.kind in ("bench", "mp"):
            return self.name
        p = dict(self.params)
        return f"{self.name}/{p.get('impl')}/n{p.get('npes')}/s{p.get('seed')}"


def _json_safe(value):
    """Coerce experiment row values to JSON-stable primitives."""
    if isinstance(value, float):
        return value
    if isinstance(value, (int, str, bool)) or value is None:
        return value
    return str(value)


def run_job(spec: dict) -> dict:
    """Execute one job spec; returns ``{"payload": ..., "meta": ...}``.

    Module-level (picklable) so :class:`ProcessPoolExecutor` workers can
    run it.  The *payload* is a pure function of the spec and the code
    version — byte-identical whether the job ran serially, in a pool
    worker, or was replayed from cache.  Wall time and events/sec live
    in *meta* and are observations of this one run, not identity (and
    not a benchmark: host-time claims go through ``perfbench``).
    """
    import gc

    from ..fabric import engine as fabric_engine

    # Measurement hygiene: settle the previous job's garbage *before*
    # this job's clock starts, so a big scenario's collection debt is
    # not billed to whichever scenario happens to run next (serial mode
    # runs many scenarios in one process).
    gc.collect()
    fabric_engine.reset_event_tally()
    events = None
    wall_override = None
    t0 = time.perf_counter()
    if spec["kind"] == "bench":
        from .experiments import run_experiment

        t0 = time.perf_counter()  # the import above is not the job's
        result = run_experiment(spec["name"], spec.get("scale", "quick"))
        payload = {
            "exp_id": result.exp_id,
            "headers": list(result.headers),
            "rows": [[_json_safe(v) for v in row] for row in result.rows],
        }
        # Engine-free experiments (pure encode/decode arithmetic, e.g.
        # fig34) report their op count so the bench row is not "events: 0".
        events = fabric_engine.events_tally() or result.ops
    elif spec["kind"] == "cell":
        stats = _run_cell(spec)
        payload = {
            "summary": {k: _json_safe(v) for k, v in sorted(stats.summary().items())}
        }
    elif spec["kind"] == "mp":
        payload, events, wall_override = _run_mp_job(spec)
    else:
        raise ValueError(f"unknown job kind {spec['kind']!r}")
    wall = time.perf_counter() - t0
    if wall_override is not None:
        wall = wall_override
    if events is None:
        events = fabric_engine.events_tally()
    return {
        "payload": payload,
        "meta": {
            "wall_s": wall,
            "events": events,
            # Sub-0.1ms walls (engine-free experiments on a fast box)
            # would explode the ratio into timer noise; clamp the
            # denominator instead of dividing by ~0.
            "events_per_sec": events / max(wall, 1e-4),
        },
    }


def _run_cell(spec: dict) -> "RunStats":
    """One matrix cell: a named UTS tree through :func:`run_point`."""
    from ..runtime.registry import TaskRegistry
    from ..workloads.uts import UtsWorkload, get_tree

    tree = get_tree(spec["name"])

    def factory() -> tuple[TaskRegistry, list[Task]]:
        reg = TaskRegistry()
        wl = UtsWorkload(reg, tree)
        return reg, [wl.seed_task()]

    return run_point(
        factory, spec["impl"], int(spec["npes"]), int(spec["seed"]), SweepConfig()
    )


def _run_mp_job(spec: dict) -> tuple[dict, int, float]:
    """One multiprocess-substrate job → (payload, events, wall).

    The payload keeps only fields that are a pure function of the spec
    (task counts and conservation) so the content-addressed cache stays
    honest; racy per-run observables (steal counts, volumes) are
    measurement metadata and live in the bench report's meta instead.
    ``events`` is the completed-task count, so the report's events/sec
    column reads as tasks/sec for mp scenarios.  ``wall`` is the run's
    own wall (process start to all results in).
    """
    from ..mp.driver import run_mp

    workload, size = spec["workload"], spec["size"]
    kwargs = {"verify": True}
    if workload == "synthetic":
        kwargs["ntasks"] = int(size)
    else:
        kwargs["tree"] = str(size)
    crash_spec = spec.get("crash")
    if crash_spec:
        from ..mp.faults import CrashKill, CrashPlan

        kill, point = crash_spec.split(":", 1)
        rank_s, after_s = kill.split("@", 1)
        kwargs["crash"] = CrashPlan(
            kills=(CrashKill(int(rank_s), int(after_s), point),)
        )
    result = run_mp(workload, spec["impl"], int(spec["npes"]), **kwargs)
    conserved = bool(result.conserved)
    # Crash jobs report the recovery wall (detect + repair + scavenge
    # + re-inject); throughput jobs report the end-to-end run wall.
    wall = result.recovery_wall_s if crash_spec else result.wall_s
    s = result.summary()
    if crash_spec:
        # Duplicate totals are racy run to run; the payload keeps only
        # the spec-determined invariants so the cache stays honest.
        payload = {
            "workload": workload,
            "impl": spec["impl"],
            "npes": int(spec["npes"]),
            "crash": crash_spec,
            "executed_unique": s["executed_unique"],
            "conserved": conserved,
        }
        return payload, s["executed_unique"], wall
    payload = {
        "workload": workload,
        "impl": spec["impl"],
        "npes": int(spec["npes"]),
        "created": s["created"],
        "completed": s["completed"],
        "executed": s["executed"],
        "conserved": conserved,
    }
    return payload, s["completed"], wall


class ResultCache:
    """Content-addressed store of completed job records.

    One JSON file per key under ``root``; writes are atomic (tmp file +
    rename) so a killed run never leaves a truncated record, and corrupt
    or unreadable entries degrade to cache misses.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict | None:
        """The stored record for ``key``, or None on miss/corruption."""
        path = self._path(key)
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return None

    def put(self, key: str, record: dict) -> Path:
        """Atomically persist one record."""
        path = self._path(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(record, sort_keys=True, indent=1))
        tmp.replace(path)
        return path

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))


def resolve_jobs(requested: int | None = None) -> int:
    """Worker-count policy for the fan-out pool.

    Priority: ``REPRO_SWEEP_SERIAL=1`` forces 1; an explicit request
    wins next; under ``CI`` default to at most 2 (shared runners); else
    use the machine's core count.
    """
    if os.environ.get(SERIAL_ENV, "") not in ("", "0"):
        return 1
    ncpu = os.cpu_count() or 1
    if requested is not None:
        return max(1, requested)
    if os.environ.get("CI", "") not in ("", "0", "false"):
        return min(2, ncpu)
    return ncpu


@dataclass
class SweepOutcome:
    """Everything one fan-out run produced."""

    records: list[dict]      # aligned with the submitted jobs
    code_version: str
    mode: str                # "serial" | "pool"
    workers: int             # workers actually used
    hits: int                # jobs served from cache
    wall_s: float            # whole fan-out wall time


def run_jobs(
    jobs: list[SweepJob],
    *,
    workers: int | None = None,
    cache: ResultCache | None = None,
    refresh: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepOutcome:
    """Run every job, fanning across processes and consulting the cache.

    Cache hits (matching key *and* code version) are returned without
    re-execution.  The pool degrades gracefully: if the executor cannot
    start or dies (sandboxes without semaphores, single-core boxes, a
    killed worker), remaining jobs fall back to in-process serial
    execution — the payloads are identical either way.
    """
    t_start = time.perf_counter()
    version = code_version()
    say = progress or (lambda _msg: None)
    records: list[dict | None] = [None] * len(jobs)
    keys = [job.key(version) for job in jobs]
    hits = 0
    pending: list[int] = []
    for i, job in enumerate(jobs):
        hit = None if (cache is None or refresh) else cache.get(keys[i])
        if hit is not None and hit.get("code_version") == version:
            hit = dict(hit)
            hit["cached"] = True
            records[i] = hit
            hits += 1
            say(f"cached  {job.label()}")
        else:
            pending.append(i)

    nworkers = min(resolve_jobs(workers), max(1, len(pending)))
    mode = "serial"
    if nworkers > 1 and pending:
        try:
            from concurrent.futures import ProcessPoolExecutor, as_completed

            with ProcessPoolExecutor(max_workers=nworkers) as pool:
                futures = {
                    pool.submit(run_job, jobs[i].spec()): i for i in pending
                }
                for fut in as_completed(futures):
                    i = futures[fut]
                    records[i] = _finish(jobs[i], keys[i], fut.result(), version)
                    say(f"ran     {jobs[i].label()} [pool]")
            mode = "pool"
        except (ImportError, OSError, PermissionError, RuntimeError) as exc:
            # Executor unavailable (no sem_open, fork refused, worker
            # died): finish whatever is left serially.
            say(f"pool unavailable ({exc.__class__.__name__}); running serially")
    for i in pending:
        if records[i] is None:
            records[i] = _finish(jobs[i], keys[i], run_job(jobs[i].spec()), version)
            say(f"ran     {jobs[i].label()} [serial]")

    if cache is not None:
        for i in pending:
            rec = records[i]
            if rec is not None and not rec.get("cached"):
                cache.put(keys[i], {k: v for k, v in rec.items() if k != "cached"})

    return SweepOutcome(
        records=records,  # type: ignore[arg-type]
        code_version=version,
        mode=mode,
        workers=nworkers if mode == "pool" else 1,
        hits=hits,
        wall_s=time.perf_counter() - t_start,
    )


def _finish(job: SweepJob, key: str, result: dict, version: str) -> dict:
    """Assemble the stored/returned record for one executed job."""
    return {
        "key": key,
        "code_version": version,
        "spec": job.spec(),
        "payload": result["payload"],
        "meta": result["meta"],
        "cached": False,
    }


# ----------------------------------------------------------------------
# BENCH_fabric.json: the perf-observability report
# ----------------------------------------------------------------------
def bench_report(outcome: SweepOutcome) -> dict:
    """Shape a bench-mode outcome into the ``BENCH_fabric.json`` schema."""
    scenarios = {}
    for rec in outcome.records:
        spec = rec["spec"]
        if spec["kind"] not in ("bench", "mp"):
            continue
        meta = rec["meta"]
        entry = {
            "wall_s": round(meta["wall_s"], 4),
            "events": meta["events"],
            "events_per_sec": round(meta["events_per_sec"], 1),
            "cached": bool(rec.get("cached")),
        }
        if spec["kind"] == "mp":
            # events == completed tasks here, so events/sec reads as
            # tasks/sec.
            entry["conserved"] = bool(rec["payload"].get("conserved"))
        scenarios[spec["name"]] = entry
    return {
        "schema": 1,
        "code_version": outcome.code_version,
        "mode": outcome.mode,
        "workers": outcome.workers,
        "host_cpus": os.cpu_count() or 1,
        "cache_hits": outcome.hits,
        "total_wall_s": round(outcome.wall_s, 4),
        "scenarios": scenarios,
    }
