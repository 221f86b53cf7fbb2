"""The fan-out runner behind ``python -m repro sweep``, the one way
experiments are run.

Every run in this simulator is deterministic and independent, so
registered experiments and backend×seed×impl×workload cells fan out
across a
:class:`~concurrent.futures.ProcessPoolExecutor`, and each finished job
becomes one row of the experiment table (:mod:`repro.analysis.table`)
keyed by ``(job spec, code version)`` — a job re-runs only when its
inputs or the simulator sources change, and a job that raises is an
``error`` row, not the end of the sweep.  This module imports no
simulator: a job imports what it runs, and :func:`run_jobs` imports the
body module of every pending experiment row (and a matrix cell's pool
and tree) before the pool forks, so the workers inherit them.
The process-count sweep of Figs. 7 & 8 is :mod:`repro.analysis.series`.
See ``docs/performance.md``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

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

    ``kind`` is ``"bench"`` (regenerate one experiment scenario) or
    ``"cell"`` (one run of a workload on one backend, see
    :func:`run_cell`).  The frozen spec is the job's table identity — two
    jobs with equal specs are the same row.
    """

    kind: str
    name: str
    params: tuple[tuple[str, object], ...] = ()

    @classmethod
    def bench(cls, exp_id: str, scale: str = "quick") -> "SweepJob":
        """A bench scenario: run one registered experiment."""
        return cls("bench", exp_id, (("scale", scale),))

    @classmethod
    def cell(cls, workload: str, impl: str, npes: int, seed: int,
             backend: str = "fabric") -> "SweepJob":
        """One cell: ``workload`` under one impl/npes/seed on ``backend``."""
        return cls("cell", workload, (("impl", impl), ("npes", npes),
                                      ("seed", seed), ("backend", backend)))

    def spec(self) -> dict:
        """JSON-ready canonical description."""
        out = {"kind": self.kind, "name": self.name}
        out.update(self.params)
        return out

    def label(self) -> str:
        """Short human-readable name for progress lines."""
        return _label(self.spec())


def _label(spec: dict) -> str:
    if spec["kind"] == "bench":
        return spec["name"]
    return (f"{spec['backend']}:{spec['name']}/{spec['impl']}"
            f"/n{spec['npes']}/s{spec['seed']}")


#: The real-time cells that ride along with ``--scenarios all``.  Small
#: on purpose: CI runners have 2 cores.
MP_SCENARIOS = (SweepJob.cell("synthetic", "sws", 4, 0, "mp"),
                SweepJob.cell("test_tiny", "sws", 4, 0, "mp"))


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
        from .experiments import body, run_experiment

        body(spec["name"])
        t0 = time.perf_counter()  # the imports above are not the job's
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
        record = run_cell(spec["name"], spec["impl"], int(spec["npes"]),
                          int(spec["seed"]), spec["backend"])
        wall = time.perf_counter() - t0
        payload = {"summary": {k: _json_safe(v) for k, v in
                               sorted(exact_fields(record).items())}}
        # A real-time cell fires no engine event: its count is its tasks,
        # and its books are its verdict.
        events = fabric_engine.events_tally() or record.total_tasks
        if "conserved" in payload["summary"]:
            verdict = "PASS" if record.conserved else "FAIL"
    else:
        raise ValueError(f"unknown job kind {spec['kind']!r}")
    if events is None:
        events = fabric_engine.events_tally()
    return {"status": "done", "error": "", "verdict": verdict,
            "payload": payload, "wall_s": wall, "events": events}


def _preload(job: SweepJob) -> None:
    """Import what ``job`` runs, so pool workers forked afterwards inherit
    it instead of compiling it once each.  A job whose code cannot be
    imported is left to its own run, which reports an ``error`` row."""
    try:
        if job.kind == "bench":
            from .experiments import body

            body(job.name)
        elif job.kind == "cell":
            from ..workloads.uts import workload  # noqa: F401
            from . import series  # noqa: F401
    except Exception:
        pass


def run_cell(workload: str, impl: str, npes: int, seed: int,
             backend: str = "fabric"):
    """One run of ``workload`` on ``backend``, and its record.

    A workload is ``bpc`` or a named UTS tree, and on mp any entry of
    ``mp.driver.WORKLOADS``: the fabric runs it through ``run_point``, mp
    through ``run_mp``, verified against the sequential oracle.
    """
    if backend == "mp":
        from ..mp.driver import WORKLOADS, run_mp

        name = workload if workload in WORKLOADS else "uts"
        return run_mp(name, impl, npes, tree=workload, seed=seed, verify=True)
    from functools import partial

    from ..runtime.registry import TaskRegistry
    from ..workloads.bpc import BpcWorkload
    from ..workloads.uts.params import get_tree
    from ..workloads.uts.workload import UtsWorkload
    from .series import SweepConfig, run_point

    make = (BpcWorkload if workload == "bpc"
            else partial(UtsWorkload, tree=get_tree(workload)))

    def factory():
        reg = TaskRegistry()
        return reg, [make(reg).seed_task()]

    return run_point(factory, impl, npes, seed, SweepConfig())


def exact_fields(record) -> dict:
    """The fields of a run record that are a pure function of its spec.

    A simulated run is deterministic, so every summary field is.  On a
    real-time backend the kernel's interleaving decides the steals and
    the clock decides the times, so only the books are.
    """
    if not hasattr(record, "conserved"):
        return record.summary()
    return {"npes": record.npes, "tasks": record.total_tasks,
            "created": record.created, "completed": record.completed,
            "checksum": record.checksum, "conserved": record.conserved}


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
        for i in pending:
            _preload(jobs[i])
        # The workers fork from this heap; frozen, it is one their per-job
        # ``gc.collect()`` neither walks nor copies page by page.
        gc.freeze()
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
        finally:
            gc.unfreeze()
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
    """The ``--out`` dump: each row's ``wall_s`` and ``events`` columns —
    observations of this host, not claims — and its verdict."""
    scenarios = {}
    for rec in outcome.records:
        scenarios[_label(rec["spec"])] = {
            "status": rec["status"],
            "wall_s": round(rec["wall_s"], 4),
            "events": rec["events"],
            # Sub-0.1ms walls (engine-free experiments on a fast box)
            # would explode the ratio into timer noise; clamp the
            # denominator instead of dividing by ~0.
            "events_per_sec": round(rec["events"] / max(rec["wall_s"], 1e-4), 1),
            "cached": bool(rec.get("cached")),
            "verdict": rec["verdict"],
        }
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
