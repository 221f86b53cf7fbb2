"""Process-count sweeps with repetitions — the engine behind Figs. 7 & 8.

A sweep runs one workload under both queue implementations across a list
of PE counts, repeating each cell with different seeds (the paper
averages 10 runs per point; seeds here perturb victim selection, the
physical source of run-to-run variance on the real cluster).

The second half of this module is the **fan-out runner** behind
``python -m repro sweep``, the one way experiments are run: every run in
this simulator is deterministic and independent, so registered
experiments, seed×impl×workload matrix cells and the multiprocess rows
fan out across a :class:`~concurrent.futures.ProcessPoolExecutor`, and
each finished job becomes one row of the experiment table
(:mod:`repro.analysis.table`) keyed by ``(job spec, code version)`` — a
job re-runs only when its inputs or the simulator sources change, and a
job that raises is an ``error`` row, not the end of the sweep.  See
``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
import traceback
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
# Fan-out runner: parallel deterministic jobs, one table row each
# ======================================================================

#: Multiprocess-substrate scenarios that ride along with ``--scenarios
#: all``: (workload, impl, npes, size) — size is ntasks for synthetic, a
#: named UTS tree otherwise.  Small on purpose: CI runners have 2 cores.
MP_SCENARIOS: tuple[tuple, ...] = (
    ("synthetic", "sws", 4, 1200),
    ("uts", "sws", 4, "test_tiny"),
    # Chaos row: rank 1 SIGKILLed holding a stripe lock after its 6th
    # task.  The reported wall is the *recovery* wall (death detection +
    # lease break + scavenge + re-inject), so the row's ``wall_s`` tracks
    # recovery latency over time.
    ("synthetic", "sws", 4, 1200, "1@6:lock"),
)


def code_version() -> str:
    """Content hash of the simulator sources (12 hex chars).

    Hashes every ``.py`` file under ``src/repro`` (path + bytes), so any
    source change — even whitespace — opens a fresh set of table rows.
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
    frozen spec is the job's table identity — two jobs with equal specs
    are the same row.
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

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        if self.kind in ("bench", "mp"):
            return self.name
        p = dict(self.params)
        return f"{self.name}/{p.get('impl')}/n{p.get('npes')}/s{p.get('seed')}"


def _json_safe(value):
    """Coerce experiment row values to JSON-stable primitives."""
    ok = value is None or isinstance(value, (float, int, str, bool))
    return value if ok else str(value)


def run_job(spec: dict) -> dict:
    """Execute one job spec; returns its resultfields and never raises.

    Module-level (picklable) so :class:`ProcessPoolExecutor` workers can
    run it.  A job that raises becomes ``status="error"`` carrying the
    traceback, so an exception out of a pool future is always the pool's
    own failure.  ``verdict`` and ``payload`` are a pure function of the
    spec and the code version — byte-identical whether the job ran
    serially, in a pool worker, or was read back from the table.
    ``wall_s`` and ``events`` are observations of this one run, not
    identity (and not a benchmark: host-time claims go through
    ``perfbench``).
    """
    try:
        return _execute(spec)
    except Exception:
        return {"status": "error", "error": traceback.format_exc(),
                "verdict": "", "payload": {}, "wall_s": 0.0, "events": 0}


def _execute(spec: dict) -> dict:
    import gc

    from ..fabric import engine as fabric_engine

    # Measurement hygiene: settle the previous job's garbage *before*
    # this job's clock starts, so a big scenario's collection debt is
    # not billed to whichever scenario happens to run next (serial mode
    # runs many scenarios in one process).
    gc.collect()
    fabric_engine.reset_event_tally()
    events = None
    verdict = ""
    t0 = time.perf_counter()
    if spec["kind"] == "bench":
        from .experiments import run_experiment

        t0 = time.perf_counter()  # the import above is not the job's
        result = run_experiment(spec["name"], spec.get("scale", "quick"))
        wall = time.perf_counter() - t0
        # Everything a view renders, so no view re-runs the experiment.
        payload = dataclasses.asdict(result)
        payload["rows"] = [[_json_safe(v) for v in row] for row in result.rows]
        # Engine-free experiments (pure encode/decode arithmetic, e.g.
        # fig34) report their op count so the row is not "events: 0".
        events = fabric_engine.events_tally() or result.ops
        del payload["ops"]
        verdict = result.verdict
    elif spec["kind"] == "cell":
        stats = _run_cell(spec)
        wall = time.perf_counter() - t0
        payload = {
            "summary": {k: _json_safe(v) for k, v in sorted(stats.summary().items())}
        }
    elif spec["kind"] == "mp":
        payload, events, wall = _run_mp_job(spec)
        verdict = "PASS" if payload["conserved"] else "FAIL"
    else:
        raise ValueError(f"unknown job kind {spec['kind']!r}")
    if events is None:
        events = fabric_engine.events_tally()
    return {"status": "done", "error": "", "verdict": verdict,
            "payload": payload, "wall_s": wall, "events": events}


def _run_cell(spec: dict) -> "RunStats":
    """One matrix cell: a named UTS tree through :func:`run_point`."""
    from ..runtime.registry import TaskRegistry
    from ..workloads.uts.params import get_tree
    from ..workloads.uts.workload import UtsWorkload

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
    (task counts and conservation) so the table row stays honest; racy
    per-run observables (steal counts, volumes) are not stored.
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
        # the spec-determined invariants so the row stays honest.
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


def resolve_jobs(requested: int | None = None) -> int:
    """Worker-count policy for the fan-out pool.

    An explicit request wins (``--jobs 1`` is the serial run); under
    ``CI`` default to at most 2 (shared runners); else use the machine's
    core count.
    """
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
    hits: int                # jobs served from the table
    wall_s: float            # whole fan-out wall time

    def failed(self) -> list[str]:
        """Names of the rows that are ``error`` or judged ``FAIL``."""
        return [
            f"{rec['spec']['name']} ({rec['verdict'] or rec['status']})"
            for rec in self.records
            if rec["status"] != "done" or rec["verdict"] == "FAIL"
        ]


def run_jobs(
    jobs: list[SweepJob],
    *,
    workers: int | None = None,
    table=None,
    refresh: bool = False,
    progress: Callable[[str], None] | None = None,
) -> SweepOutcome:
    """Run every job not yet ``done`` in ``table`` at this code version.

    Each record is written to the table as its job completes, so a later
    failure loses nothing already finished.  The pool degrades
    gracefully: if the executor cannot start or dies (sandboxes without
    semaphores, single-core boxes, a killed worker), remaining jobs fall
    back to in-process serial execution — the payloads are identical
    either way.
    """
    t_start = time.perf_counter()
    version = code_version()
    say = progress or (lambda _msg: None)
    records: list[dict | None] = [None] * len(jobs)
    hits = 0
    pending: list[int] = []
    for i, job in enumerate(jobs):
        hit = None if (table is None or refresh) else table.get(job.spec(), version)
        if hit is not None and hit["status"] == "done":
            hit["cached"] = True
            records[i] = hit
            hits += 1
            say(f"cached  {job.label()}")
        else:
            pending.append(i)

    def finish(i: int, result: dict, how: str) -> None:
        spec = jobs[i].spec()
        if table is not None:
            table.put(spec, version, result)
        records[i] = {"spec": spec, "code_version": version,
                      "cached": False, **result}
        what = "ran    " if result["status"] == "done" else "ERROR  "
        say(f"{what} {jobs[i].label()} [{how}]")

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
                    finish(futures[fut], fut.result(), "pool")
            mode = "pool"
        except (ImportError, OSError, RuntimeError) as exc:
            # run_job never raises, so this is the executor itself (no
            # sem_open, fork refused, BrokenProcessPool after a worker
            # died): finish whatever is left serially.
            say(f"pool unavailable ({exc.__class__.__name__}); running serially")
    for i in pending:
        if records[i] is None:
            finish(i, run_job(jobs[i].spec()), "serial")

    return SweepOutcome(
        records=records,  # type: ignore[arg-type]
        code_version=version,
        mode=mode,
        workers=nworkers if mode == "pool" else 1,
        hits=hits,
        wall_s=time.perf_counter() - t_start,
    )


def bench_report(outcome: SweepOutcome) -> dict:
    """The ``--out`` dump: each bench/mp row's ``wall_s`` and ``events``
    columns — observations of this host, not claims."""
    scenarios = {}
    for rec in outcome.records:
        spec = rec["spec"]
        if spec["kind"] not in ("bench", "mp"):
            continue
        entry = {
            "status": rec["status"],
            "wall_s": round(rec["wall_s"], 4),
            "events": rec["events"],
            # Sub-0.1ms walls (engine-free experiments on a fast box)
            # would explode the ratio into timer noise; clamp the
            # denominator instead of dividing by ~0.
            "events_per_sec": round(rec["events"] / max(rec["wall_s"], 1e-4), 1),
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
