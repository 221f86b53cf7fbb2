"""Schedule exploration: sweep, record, replay, and shrink interleavings.

The engine's same-timestamp tie-break is pluggable
(:mod:`repro.fabric.scheduler`); this module drives it systematically:

* :func:`explore` runs a workload under many schedules (seeded random,
  PCT, or bounded-exhaustive DFS), with the invariant oracle
  (:mod:`repro.runtime.oracle`) armed, and collects every failure as a
  replayable :class:`~repro.fabric.scheduler.ScheduleTrace`;
* :func:`replay_trace` re-executes a recorded trace bit-identically —
  the local half of the CI-artifact-to-repro workflow;
* :func:`shrink_trace` greedily reduces a failing trace to a minimal
  failing prefix (then zeroes interior choices), so the surviving
  decision points *are* the race.

Failures here are protocol failures: an :class:`OracleViolation` (work
lost/duplicated/corrupted), a :class:`DeadlockError`, or any
:class:`ProtocolError` from the end-of-run invariant audit.

Exposed on the command line as ``python -m repro explore`` / ``replay``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MethodType
from typing import Callable, Iterable, Sequence

from ..core.config import QueueConfig
from ..core.results import StealResult, StealStatus
from ..core.stealval import StealValEpoch, thief_claim
from ..core.sws_queue import META_REGION, STEALVAL
from ..fabric.errors import DeadlockError, OracleViolation, ProtocolError
from ..fabric.scheduler import (
    DfsScheduler,
    ScheduleTrace,
    Scheduler,
    dfs_successor,
    make_scheduler,
)
from ..runtime.pool import TaskPool
from ..runtime.registry import TaskOutcome, TaskRegistry
from ..runtime.task import Task

#: Workload names accepted by :func:`build_pool` (all small on purpose:
#: exploration multiplies runs, so each run must be cheap).
WORKLOADS = ("flat", "tree", "churn")

#: Virtual seconds an explored run may take.  The slowest clean run of the
#: built-in workloads (every protocol, 2-4 PEs, fixed, random and PCT
#: schedules) ends at 0.66 ms.
DEADLINE = 5e-3


def build_pool(
    workload: str,
    impl: str,
    scheduler: Scheduler | None = None,
    oracle: bool = True,
    npes: int = 4,
) -> TaskPool:
    """Build one oracle-armed pool for a named exploration workload.

    ``flat``
        All tasks seeded on PE 0: maximal initial steal contention, the
        window where every thief races the owner's first release.
    ``tree``
        One root spawning a binary tree (depth 6, 127 tasks): dynamic
        release/steal churn as subtrees migrate.
    ``churn``
        A deep spawn chain with a tiny queue (qsize 32): drives ring
        wraparound and epoch turnover, the reclamation-heavy paths.
    """
    reg = TaskRegistry()
    cfg = QueueConfig()
    seeds: list[Task] = []
    if workload == "flat":
        reg.register("leaf", lambda payload, tc: TaskOutcome(duration=2e-6))
        seeds = [Task(reg.id_of("leaf")) for _ in range(96)]
    elif workload == "tree":
        def node(payload: bytes, tc) -> TaskOutcome:
            depth = payload[0]
            kids = (
                [Task(reg.id_of("node"), bytes([depth - 1])) for _ in range(2)]
                if depth > 0
                else []
            )
            return TaskOutcome(duration=1e-6, children=kids)

        reg.register("node", node)
        seeds = [Task(reg.id_of("node"), bytes([6]))]
    elif workload == "churn":
        cfg = QueueConfig(qsize=32)

        def chain(payload: bytes, tc) -> TaskOutcome:
            left = payload[0]
            kids = (
                [
                    Task(reg.id_of("chain"), bytes([left - 1])),
                    Task(reg.id_of("leaf")),
                    Task(reg.id_of("leaf")),
                ]
                if left > 0
                else []
            )
            return TaskOutcome(duration=1e-6, children=kids)

        reg.register("chain", chain)
        reg.register("leaf", lambda payload, tc: TaskOutcome(duration=1e-6))
        seeds = [Task(reg.id_of("chain"), bytes([40]))]
    else:
        raise ValueError(f"workload must be one of {WORKLOADS}, got {workload!r}")
    pool = TaskPool(npes, reg, impl=impl, queue_config=cfg,
                    scheduler=scheduler, oracle=oracle)
    pool.seed(0, seeds)
    return pool


#: Builds a ready-to-run pool from a scheduler (captures workload/impl).
PoolFactory = Callable[[Scheduler | None], TaskPool]


def pool_factory(
    workload: str, impl: str, oracle: bool = True, npes: int = 4
) -> PoolFactory:
    """Close :func:`build_pool` over everything but the scheduler."""
    return lambda scheduler: build_pool(
        workload, impl, scheduler=scheduler, oracle=oracle, npes=npes
    )


@dataclass
class RunResult:
    """Outcome of one explored run."""

    ok: bool
    check: str | None        # violation class ("deadlock", "double-claim", ...)
    detail: str              # human-readable failure description
    trace: ScheduleTrace     # the schedule that produced it (always recorded)
    events: int              # engine events processed
    runtime: float | None    # virtual end time (clean runs only)


def run_once(factory: PoolFactory, scheduler: Scheduler) -> RunResult:
    """One run under ``scheduler``; failures become results, not raises.

    A run still live at :data:`DEADLINE` is a ``no-termination`` failure:
    the oracle's conservation check sees duplicated work, not a lost
    task, so a protocol that loses one never ends on its own.
    """
    pool = factory(scheduler)
    engine = pool.ctx.engine
    sched = engine.scheduler
    assert sched is not None, "exploration requires an attached scheduler"
    check, detail, runtime = None, "", None
    try:
        pool.start_workers()
        end = pool.ctx.run(until=DEADLINE)
        if engine.live:
            check = "no-termination"
            detail = f"still live at the {DEADLINE * 1e3:g} ms virtual deadline"
        else:
            runtime = pool.finish(end).runtime
    except OracleViolation as exc:
        check, detail = exc.check, str(exc)
    except (DeadlockError, ProtocolError) as exc:
        check = "deadlock" if isinstance(exc, DeadlockError) else "protocol"
        detail = str(exc)
    return RunResult(check is None, check, detail, sched.trace(),
                     engine.events_processed, runtime)


@dataclass
class ExploreReport:
    """Aggregate of one exploration sweep."""

    workload: str
    impl: str
    policy: str
    runs: int = 0
    events: int = 0
    decision_points: int = 0
    failures: list[RunResult] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"explore {self.workload}/{self.impl} policy={self.policy}: "
            f"{self.runs} runs, {self.events} events, "
            f"{self.decision_points} decision points, "
            f"{len(self.failures)} failures",
        ]
        for f in self.failures:
            lines.append(f"  FAIL [{f.check}] after {f.events} events: "
                         f"{f.detail.splitlines()[0]}")
        return "\n".join(lines)


def explore(
    workload: str,
    impl: str,
    policy: str = "random",
    seeds: Iterable[int] = range(20),
    dfs_depth: int = 8,
    max_runs: int = 512,
    npes: int = 4,
    factory: PoolFactory | None = None,
    stop_on_failure: bool = False,
) -> ExploreReport:
    """Sweep schedules for one workload/impl under one policy.

    ``random``/``pct`` run one schedule per seed; ``fixed`` runs once;
    ``dfs`` enumerates every same-time ordering over the first
    ``dfs_depth`` decision points (capped at ``max_runs`` branches).
    ``factory`` overrides the built-in workloads (used by the mutation
    smoke test to explore a deliberately broken queue).
    """
    factory = factory or pool_factory(workload, impl, npes=npes)
    report = ExploreReport(workload=workload, impl=impl, policy=policy)

    def record(result: RunResult, sched: Scheduler) -> None:
        report.runs += 1
        report.events += result.events
        report.decision_points += sched.decisions
        if not result.ok:
            result.trace.meta.update(
                workload=workload, impl=impl, npes=npes,
                check=result.check, detail=result.detail.splitlines()[0],
            )
            report.failures.append(result)

    if policy == "dfs":
        prefix: list[int] | None = []
        while prefix is not None and report.runs < max_runs:
            sched = DfsScheduler(prefix, max_depth=dfs_depth)
            record(run_once(factory, sched), sched)
            if report.failures and stop_on_failure:
                break
            prefix = dfs_successor(sched.choices, dfs_depth)
    else:
        seed_list = [0] if policy == "fixed" else list(seeds)
        for seed in seed_list[:max_runs]:
            sched = make_scheduler(policy, seed=seed)
            record(run_once(factory, sched), sched)
            if report.failures and stop_on_failure:
                break
    return report


def replay_trace(
    trace: ScheduleTrace,
    factory: PoolFactory | None = None,
    strict: bool = False,
) -> RunResult:
    """Re-execute a recorded trace (workload/impl come from its meta)."""
    factory = factory or _recorded_factory(trace)
    return run_once(factory, trace.replayer(strict=strict))


def _recorded_factory(trace: ScheduleTrace) -> PoolFactory:
    """The pool a trace's meta names."""
    meta = trace.meta
    if "workload" not in meta or "impl" not in meta:
        raise ValueError(
            "trace has no workload/impl metadata; pass factory= explicitly"
        )
    return pool_factory(meta["workload"], meta["impl"],
                        npes=int(meta.get("npes", 4)))


def shrink_trace(
    trace: ScheduleTrace,
    factory: PoolFactory | None = None,
    max_attempts: int = 128,
) -> tuple[ScheduleTrace, int]:
    """Greedily shrink a failing trace; returns (minimal trace, runs used).

    Two passes, both bounded by ``max_attempts`` replays:

    1. **prefix** — binary search for the shortest choice prefix that
       still fails (replay falls back to default order past the prefix);
    2. **zeroing** — left to right, replace each surviving nonzero
       choice with 0 (default order) and keep the substitution when the
       run still fails.

    The result reproduces the *same class* of failure (same oracle
    check); a trace that no longer fails at full length is returned
    unchanged.
    """
    factory = factory or _recorded_factory(trace)
    attempts = 0
    want = trace.meta.get("check")

    def fails(choices: Sequence[int]) -> bool:
        nonlocal attempts
        attempts += 1
        probe = ScheduleTrace(policy="replay", seed=trace.seed,
                              choices=list(choices), meta=dict(trace.meta))
        result = run_once(factory, probe.replayer())
        return (not result.ok) and (want is None or result.check == want)

    choices = list(trace.choices)
    if not fails(choices):
        return trace, attempts  # not reproducible under replay: keep as-is

    # Pass 1: shortest failing prefix (binary search, then verify).
    lo, hi = 0, len(choices)
    while lo < hi and attempts < max_attempts:
        mid = (lo + hi) // 2
        if fails(choices[:mid]):
            hi = mid
        else:
            lo = mid + 1
    if fails(choices[:hi]):
        choices = choices[:hi]

    # Pass 2: zero out interior choices that don't matter.
    for i, c in enumerate(choices):
        if attempts >= max_attempts:
            break
        if c == 0:
            continue
        candidate = choices[:i] + [0] + choices[i + 1:]
        if fails(candidate):
            choices = candidate

    shrunk = ScheduleTrace(
        policy="replay",
        seed=trace.seed,
        choices=choices,
        meta={**trace.meta, "shrunk_from": len(trace.choices)},
    )
    return shrunk, attempts


# ----------------------------------------------------------------------
# The explore-race row: paper §4's claim race, planted and explored
# ----------------------------------------------------------------------
def unfused_steal(self, victim: int):
    """``SwsQueue.steal`` with its fused fetch-add split into a read THEN
    an add: the discover-then-claim window paper §4 closes.  Thieves that
    read between each other's adds claim the same block."""
    old = yield self.pe.atomic_fetch(victim, META_REGION, STEALVAL)
    yield self.pe.atomic_add_nb(victim, META_REGION, STEALVAL,
                                StealValEpoch.ASTEAL_UNIT)
    view = StealValEpoch.unpack(old)
    if view.locked:
        return StealResult(StealStatus.DISABLED, victim)
    ntasks, disp = thief_claim(view.itasks, view.asteals)
    if ntasks == 0:
        return self.empty_results[victim]
    return (yield from self._take_claimed(
        victim, view.tail + disp, ntasks,
        self._comp_offset(view.epoch, view.asteals)))


def unfused_factory(workload: str, npes: int) -> PoolFactory:
    """:func:`pool_factory` for SWS whose queues steal with
    :func:`unfused_steal`, bound per queue (the class is untouched)."""
    def factory(scheduler: Scheduler | None) -> TaskPool:
        pool = build_pool(workload, "sws", scheduler=scheduler, npes=npes)
        for w in pool.workers:
            w.queue.steal = MethodType(unfused_steal, w.queue)
        return pool
    return factory


#: scale -> (random and PCT seeds, DFS depth, DFS runs, shrink replays).
RACE_SCALES = {"quick": (4, 4, 8, 12), "full": (16, 6, 32, 48)}


def explore_race(scale: str = "quick"):
    """The unfused mutant and the fused SWS under every policy, on every
    built-in workload at 2-4 PEs: failing runs, the mutant's first failed
    check and its shrunk trace's decision count."""
    from .experiments import ExperimentResult

    nseeds, depth, dfs_runs, replays = RACE_SCALES[scale]
    rows, caught = [], {}
    for workload in WORKLOADS:
        for npes in (2, 3, 4):
            mutant = unfused_factory(workload, npes)
            for policy in ("fixed", "random", "pct", "dfs"):
                kw = dict(policy=policy, seeds=range(nseeds), npes=npes,
                          dfs_depth=depth, max_runs=dfs_runs)
                bad = explore(workload, "sws", factory=mutant, **kw)
                good = explore(workload, "sws", **kw)
                first = bad.failures[0] if bad.failures else None
                shrunk = first and shrink_trace(first.trace, mutant, replays)[0]
                rows.append([workload, npes, policy,
                             f"{len(bad.failures)}/{bad.runs}",
                             first.check if first else "-",
                             len(shrunk.choices) if first else "-",
                             f"{len(good.failures)}/{good.runs}"])
                caught.setdefault((workload, npes), set()).add(bool(first))
    split = [f"{w}@{n}" for (w, n), seen in caught.items() if len(seen) > 1]
    longest = max((r[5] for r in rows if r[5] != "-"), default=0)
    return ExperimentResult(
        title="Discover-then-claim race: unfused vs fused SWS, explored",
        headers=["workload", "PEs", "policy", "unfused fails", "first check",
                 "shrunk decisions", "fused fails"],
        rows=rows,
        notes=[f"a run still live at {DEADLINE * 1e3:g} ms virtual is "
               "'no-termination': it lost a task, which conservation (a "
               "duplicate check) cannot see",
               "policies disagree on " + ", ".join(split) if split else
               "no policy separates from fixed: wherever one finds the "
               "race, every policy does",
               f"the longest shrunk failing schedule holds {longest} "
               "decisions (0: the default order already races)"])
