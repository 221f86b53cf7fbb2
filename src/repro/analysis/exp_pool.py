"""Pool experiment bodies: whole ``TaskPool`` runs over the paper's
workloads, mostly through the process-count sweep of
:mod:`repro.analysis.series`.

Their closure is the simulated runtime (pool, workers, detectors), BPC,
UTS and the sweep; the steal-level bodies are
:mod:`repro.analysis.exp_steal`.  Each function is the body of the
:data:`~repro.analysis.experiments.EXPERIMENTS` row named after it, which
holds its claim and judge.
"""

from __future__ import annotations

from ..core.config import QueueConfig
from ..fabric.faults import FaultPlan
from ..runtime.pool import TaskPool, run_pool
from ..runtime.protocols import all_protocols
from ..runtime.registry import TaskOutcome, TaskRegistry
from ..runtime.task import Task
from ..runtime.worker import WorkerConfig
from ..workloads.bpc import PAPER_PARAMS as BPC_PAPER
from ..workloads.bpc import BpcParams, BpcWorkload
from ..workloads.synthetic import measure_single_steal
from ..workloads.uts.params import BENCH_GEO, TEST_SMALL
from ..workloads.uts.sequential import enumerate_tree
from ..workloads.uts.workload import (
    PAPER_NODE_TIME,
    PAPER_TASK_SIZE,
    UtsWorkload,
    UtsWorkloadParams,
)
from .experiments import ExperimentResult
from .series import (
    CellSummary,
    SweepConfig,
    SweepPoint,
    relative_improvement,
    run_sweep,
    speedup_factor,
    summarize_cells,
)


# ----------------------------------------------------------------------
# Table 2 — workload characteristics
# ----------------------------------------------------------------------
def tab2(scale: str = "quick") -> ExperimentResult:
    """Workload characteristics of the evaluation benchmarks."""
    bpc_scaled = _bpc_params(scale)
    uts_tree = _uts_tree(scale)
    uts_stats = enumerate_tree(uts_tree, max_nodes=2_000_000)
    rows = [
        ["BPC (paper)", BPC_PAPER.total_tasks, BPC_PAPER.avg_task_time * 1e3, 32],
        ["UTS (paper, T1WL)", 270_751_679_750, PAPER_NODE_TIME * 1e3, PAPER_TASK_SIZE],
        ["BPC (this repro)", bpc_scaled.total_tasks, bpc_scaled.avg_task_time * 1e3, 32],
        ["UTS (this repro)", uts_stats.nodes, PAPER_NODE_TIME * 1e3, PAPER_TASK_SIZE],
    ]
    return ExperimentResult(
        title="Benchmark workload characteristics",
        headers=["benchmark", "total tasks", "avg task time (ms)", "task bytes"],
        rows=rows,
        notes=[
            "paper Table 2 reports BPC=2,457,901 tasks (n=8192, depth 500 per "
            "the text gives 4,096,500; the table matches depth≈300 — the "
            "discrepancy is the paper's, recorded here verbatim)",
            "repro workloads are scaled; shape (coarse BPC vs fine UTS) is "
            "preserved",
        ],
    )


# ----------------------------------------------------------------------
# Figures 7 & 8 — the six-panel sweeps
# ----------------------------------------------------------------------
def _uts_factory(tree, params: UtsWorkloadParams | None = None):
    """Workload factory: one UTS tree from its root task."""
    def factory():
        reg = TaskRegistry()
        return reg, [UtsWorkload(reg, tree, params).seed_task()]
    return factory


def _fanout_factory(nleaves: int, leaf_s: float, root_s: float = 1e-5):
    """Workload factory: a root task spawning ``nleaves`` fixed-time leaves."""
    def factory():
        reg = TaskRegistry()
        reg.register("root", lambda p, tc: TaskOutcome(root_s, [Task(1)] * nleaves))
        reg.register("leaf", lambda p, tc: TaskOutcome(leaf_s))
        return reg, [Task(0)]
    return factory


def _bpc_params(scale: str) -> BpcParams:
    if scale == "full":
        return BpcParams(n_consumers=128, depth=64, consumer_time=5e-3, producer_time=1e-3)
    return BpcParams(n_consumers=32, depth=16, consumer_time=5e-3, producer_time=1e-3)


def _uts_tree(scale: str):
    return BENCH_GEO if scale == "full" else TEST_SMALL


def _sweep_config(scale: str, task_size: int, qsize: int) -> SweepConfig:
    if scale == "full":
        npes = (2, 4, 8, 16, 32, 64)
        reps = 5
    else:
        npes = (2, 4, 8, 16)
        reps = 3
    return SweepConfig(
        npes_list=npes,
        reps=reps,
        queue_config=QueueConfig(qsize=qsize, task_size=task_size),
        worker_config=WorkerConfig(),
    )


def _panel_rows(cells: list[CellSummary]) -> list[list]:
    rows = []
    improvement = relative_improvement(cells)
    for c in sorted(cells, key=lambda c: (c.npes, c.impl)):
        rows.append(
            [
                c.impl.upper(),
                c.npes,
                c.runtime_mean * 1e3,
                c.throughput,
                improvement.get(c.npes, float("nan")) if c.impl == "sws" else 100.0,
                c.efficiency * 100.0,
                c.rel_sd_pct,
                c.rel_range_pct,
                c.steal_time * 1e3,
                c.search_time * 1e3,
            ]
        )
    return rows


_PANEL_HEADERS = [
    "impl", "npes", "runtime(ms)", "tasks/s", "rel. perf %",
    "efficiency %", "SD %", "range %", "steal time(ms)", "search time(ms)",
]


def fig7(scale: str = "quick") -> ExperimentResult:
    """BPC: all six panels of Figure 7 from one sweep."""
    params = _bpc_params(scale)

    def factory():
        reg = TaskRegistry()
        wl = BpcWorkload(reg, params)
        return reg, [wl.seed_task()]

    cfg = _sweep_config(scale, task_size=32, qsize=4096)
    points = run_sweep(factory, cfg)
    cells = summarize_cells(points)
    steal_factor = speedup_factor(cells, "steal_time")
    search_factor = speedup_factor(cells, "search_time")
    from .plots import chart_cells

    return ExperimentResult(
        title=f"BPC sweep (n={params.n_consumers}, depth={params.depth})",
        headers=_PANEL_HEADERS,
        rows=_panel_rows(cells),
        charts=[
            chart_cells(cells, "throughput", "fig7a: BPC tasks/s vs PEs"),
            chart_cells(cells, "steal_time", "fig7e: steal time vs PEs", log_y=True),
            chart_cells(cells, "search_time", "fig7f: search time vs PEs", log_y=True),
        ],
        notes=[
            "panels: (a)=tasks/s, (b)=rel. perf %, (c)=efficiency, "
            "(d)=SD/range %, (e)=steal time, (f)=search time",
            f"steal-time factor SDC/SWS by npes: "
            + ", ".join(f"{k}:{v:.2f}x" for k, v in sorted(steal_factor.items())),
            f"search-time factor SDC/SWS by npes: "
            + ", ".join(f"{k}:{v:.2f}x" for k, v in sorted(search_factor.items())),
        ],
    )


def fig8(scale: str = "quick") -> ExperimentResult:
    """UTS: all six panels of Figure 8 from one sweep."""
    tree = _uts_tree(scale)
    factory = _uts_factory(tree, UtsWorkloadParams(node_time=PAPER_NODE_TIME))
    cfg = _sweep_config(scale, task_size=48, qsize=8192)
    points = run_sweep(factory, cfg)
    cells = summarize_cells(points)
    steal_factor = speedup_factor(cells, "steal_time")
    improvement = relative_improvement(cells)
    from .plots import chart_cells

    return ExperimentResult(
        title=f"UTS sweep ({'BENCH_GEO' if tree is BENCH_GEO else 'TEST_SMALL'})",
        headers=_PANEL_HEADERS,
        rows=_panel_rows(cells),
        charts=[
            chart_cells(cells, "throughput", "fig8a: UTS tasks/s vs PEs"),
            chart_cells(cells, "steal_time", "fig8e: steal time vs PEs", log_y=True),
            chart_cells(cells, "search_time", "fig8f: search time vs PEs", log_y=True),
        ],
        notes=[
            "panels as fig7; UTS tasks are ~110 ns, so steal overheads "
            "dominate and the SWS gap is larger than BPC's",
            f"steal-time factor SDC/SWS by npes: "
            + ", ".join(f"{k}:{v:.2f}x" for k, v in sorted(steal_factor.items())),
            f"relative improvement by npes: "
            + ", ".join(f"{k}:{v:.1f}%" for k, v in sorted(improvement.items())),
        ],
    )


# ----------------------------------------------------------------------
# Protocol zoo — the registry measured side by side
# ----------------------------------------------------------------------
#: Victim-selection seeds of the protocols flat run.
_PROTOCOL_SEEDS = range(40, 50)


def protocols(scale: str = "quick") -> ExperimentResult:
    """Every registered steal protocol under one flat workload.

    Extends the Figure 2/6/7 comparisons across the protocol zoo
    (:mod:`repro.runtime.protocols`): measured per-steal communication
    counts (single-steal probe) next to the registry's declared budget,
    plus an 8-PE flat-workload run per protocol and victim-selection
    seed with the semantics-aware oracle attached — duplicate handouts
    reported for the at-least-once entry, zero for the exactly-once ones.
    """
    ntasks = 600 if scale == "quick" else 4000
    npes = 8
    rows = []
    cells, at42 = {}, {}
    for proto in all_protocols():
        probe = measure_single_steal(
            proto.name, volume=8 if proto.steal_half else 1, task_size=24,
        )
        reg = TaskRegistry()
        reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-6))
        points = [
            SweepPoint(proto.name, npes, rep, seed, run_pool(
                npes, reg,
                [Task(reg.id_of("leaf")) for _ in range(ntasks)],
                impl=proto.name,
                queue_config=QueueConfig(qsize=4096, task_size=24),
                oracle=True,
                seed=seed,
            ))
            for rep, seed in enumerate(_PROTOCOL_SEEDS)
        ]
        workers = [w for p in points for w in p.stats.workers]
        cell = cells[proto.name] = summarize_cells(points)[0]
        at42[proto.name] = points[42 - _PROTOCOL_SEEDS[0]].stats.runtime
        rows.append(
            [
                proto.name,
                proto.semantics.name,
                probe.comms.get("total", 0),
                probe.comms.get("blocking", 0),
                probe.steal_seconds * 1e6,
                cell.runtime_mean * 1e3,
                cell.rel_range_pct,
                sum(w.tasks_stolen for w in workers) / cell.reps,
                sum(w.tasks_executed for w in workers) - ntasks * cell.reps,
            ]
        )
    sws, sdc = cells["sws"], cells["sdc"]
    return ExperimentResult(
        title=f"Protocol zoo: steal cost and {ntasks}-task flat run ({npes} PEs)",
        headers=["protocol", "semantics", "comms", "blocking", "steal (us)",
                 "runtime (ms)", "range %", "stolen", "dups"],
        rows=rows,
        notes=[
            "comm counts are exact fabric-op tallies around one steal; "
            "paper Fig. 2 gives SDC=6(5 blocking), SWS=3(2); the "
            "fence-free deque needs 3 (no atomics, all blocking)",
            f"runtime is the mean over victim-selection seeds "
            f"{_PROTOCOL_SEEDS[0]}-{_PROTOCOL_SEEDS[-1]}, range % its "
            "(max-min)/mean, stolen the mean per run, dups the total: sws "
            + " vs sdc ".join(
                f"{c.runtime_mean * 1e3:.3f} ms ({c.runtime_min * 1e3:.3f}-"
                f"{c.runtime_max * 1e3:.3f})" for c in (sws, sdc))
            + f"; seed 42 alone reads {at42['sws'] * 1e3:.3f} vs "
            f"{at42['sdc'] * 1e3:.3f} ms — a draw, not a direction: the "
            "means differ by "
            f"{100 * abs(sws.runtime_mean - sdc.runtime_mean) / sdc.runtime_mean:.1f}"
            " % where one protocol's seeds spread "
            f"{max(sws.rel_range_pct, sdc.rel_range_pct):.0f} %",
            "dups > 0 is legal only for at-least-once semantics; the "
            "attached oracle enforces executed == spawned + dups",
            "localized = SWS steal core + tier-biased victims over the "
            "tiered (socket/node/rack) latency model",
        ],
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md §5) on whole runs
# ----------------------------------------------------------------------
def ablate_damping(scale: str = "quick") -> ExperimentResult:
    """Steal damping on/off: AMO traffic on drained queues."""
    factory = _uts_factory(TEST_SMALL)
    rows = []
    for damping in (False, True):
        cfg = SweepConfig(
            npes_list=(8,),
            impls=("sws",),
            reps=3,
            queue_config=QueueConfig(qsize=4096, task_size=48),
            worker_config=WorkerConfig(damping=damping),
        )
        points = run_sweep(factory, cfg)
        cells = summarize_cells(points)
        c = cells[0]
        rows.append(
            [damping, c.runtime_mean * 1e3, c.comm_total, c.steals_failed]
        )
    return ExperimentResult(
        title="Steal damping ablation (SWS, 8 PEs, UTS)",
        headers=["damping", "runtime(ms)", "total comms", "failed claims"],
        rows=rows,
        notes=["paper §4.3: damping costs nothing measurable; probe mode "
               "trades claiming AMOs for read-only fetches on empty targets"],
    )


def ablate_epochs(scale: str = "quick") -> ExperimentResult:
    """1 vs 2 completion epochs under a real workload."""
    factory = _uts_factory(TEST_SMALL)
    rows = []
    for epochs in (1, 2):
        cfg = SweepConfig(
            npes_list=(8,),
            impls=("sws",),
            reps=3,
            queue_config=QueueConfig(qsize=4096, task_size=48, max_epochs=epochs),
        )
        points = run_sweep(factory, cfg)
        cells = summarize_cells(points)
        c = cells[0]
        rows.append([epochs, c.runtime_mean * 1e3, c.steal_time * 1e3])
    return ExperimentResult(
        title="Completion-epoch count ablation (SWS, 8 PEs, UTS)",
        headers=["epochs", "runtime(ms)", "steal time(ms)"],
        rows=rows,
        notes=["single-epoch queues must wait out in-flight steals at every "
               "acquire/release; two epochs overlap them (§4.2)"],
    )


def ablate_granularity(scale: str = "quick") -> ExperimentResult:
    """Task-granularity sweep (paper §2).

    "An application with short-lived, fine grained tasks (~10us) will be
    easier to balance, but will be more sensitive to overheads in the
    load balancing system" — so the SWS advantage should shrink as tasks
    coarsen.  Fixed task count and PE count; only the task duration moves.
    """
    durations = (1e-6, 10e-6, 100e-6, 1e-3)
    if scale == "full":
        durations = (1e-6, 10e-6, 100e-6, 1e-3, 10e-3)
    ntasks = 2000
    rows = []
    for dur in durations:
        runtimes = {}
        overheads = {}
        factory = _fanout_factory(ntasks, dur, root_s=1e-6)
        for impl in ("sdc", "sws"):
            cfg = SweepConfig(
                npes_list=(8,),
                impls=(impl,),
                reps=5,
                queue_config=QueueConfig(qsize=4096, task_size=24),
            )
            cells = summarize_cells(run_sweep(factory, cfg))
            runtimes[impl] = cells[0].runtime_mean
            overheads[impl] = cells[0].steal_time + cells[0].search_time
        rows.append(
            [
                dur * 1e6,
                runtimes["sdc"] * 1e3,
                runtimes["sws"] * 1e3,
                100.0 * runtimes["sdc"] / runtimes["sws"],
                overheads["sdc"] * 1e6,
                overheads["sws"] * 1e6,
            ]
        )
    return ExperimentResult(
        title=f"Task-granularity sweep ({ntasks} tasks, 8 PEs)",
        headers=["task (us)", "SDC ms", "SWS ms", "rel. perf %",
                 "SDC overhead (us)", "SWS overhead (us)"],
        rows=rows,
        notes=[
            "paper §2: fine-grained tasks are sensitive to steal latency, "
            "coarse tasks tolerate it — the SWS relative advantage should "
            "decay toward 100% as tasks coarsen",
        ],
    )


def ablate_v1(scale: str = "quick") -> ExperimentResult:
    """Figure-3 (valid-bit) vs Figure-4 (epoch) stealval under churn."""
    factory = _uts_factory(TEST_SMALL)
    rows = []
    for impl in ("sws-v1", "sws"):
        cfg = SweepConfig(
            npes_list=(8,),
            impls=(impl,),
            reps=3,
            queue_config=QueueConfig(qsize=4096, task_size=48),
        )
        cells = summarize_cells(run_sweep(factory, cfg))
        c = cells[0]
        rows.append(
            [impl, c.runtime_mean * 1e3, c.steal_time * 1e3,
             c.steals_ok, c.comm_total]
        )
    return ExperimentResult(
        title="Initial (Fig. 3) vs epoch (Fig. 4) stealval, UTS at 8 PEs",
        headers=["impl", "runtime(ms)", "steal time(ms)", "steals", "comms"],
        rows=rows,
        notes=[
            "the steal protocol is identical; the epoch variant avoids the "
            "§4.1 management stall on in-flight steals",
        ],
    )


def ablate_termination(scale: str = "quick") -> ExperimentResult:
    """Ring vs tree termination: pure detection latency.

    A pool seeded with zero tasks measures nothing but detection — the
    virtual runtime is the time for the detector to notice the empty
    system.  Ring rounds cost O(P) hops; tree rounds O(log P).
    """
    npes_list = (8, 32, 64) if scale == "quick" else (8, 32, 64, 128, 256)
    rows = []
    for npes in npes_list:
        times = {}
        for kind in ("ring", "tree"):
            reg = TaskRegistry()
            reg.register("noop", lambda p, tc: None)
            pool = TaskPool(
                npes,
                reg,
                impl="sws",
                queue_config=QueueConfig(qsize=128, task_size=16),
                termination=kind,
            )
            times[kind] = pool.run().runtime
        rows.append(
            [npes, times["ring"] * 1e6, times["tree"] * 1e6,
             times["ring"] / times["tree"]]
        )
    return ExperimentResult(
        title="Termination detection latency: ring vs tree",
        headers=["npes", "ring (us)", "tree (us)", "ring/tree"],
        rows=rows,
        notes=[
            "empty-pool runtime is pure detection time; the tree's "
            "O(log P) rounds pull ahead as the ring grows",
        ],
    )


def ablate_victims(scale: str = "quick") -> ExperimentResult:
    """Victim-selection policies on a multi-node layout.

    Locality-aware selection (SLAW/HotSLAW, §2.2) trades discovery
    breadth for cheap intra-node steals; the hierarchical variant
    escalates adaptively.  SWS composes with all of them — the paper's
    'can be used in conjunction with enhancements to the work stealing
    algorithm' claim, measured.
    """
    factory = _fanout_factory(800, 2e-4)
    rows = []
    for victim in ("uniform", "locality", "hierarchical"):
        runtimes, steal_times = [], []
        for rep in range(3):
            registry, seeds = factory()
            pool = TaskPool(
                16,
                registry,
                impl="sws",
                queue_config=QueueConfig(qsize=4096, task_size=24),
                pes_per_node=4,
                victim=victim,
                seed=200 + rep,
            )
            pool.seed(0, seeds)
            st = pool.run()
            runtimes.append(st.runtime)
            steal_times.append(st.total_steal_time)
        n = len(runtimes)
        rows.append(
            [victim, sum(runtimes) / n * 1e3, sum(steal_times) / n * 1e6]
        )
    return ExperimentResult(
        title="Victim policies on 4 nodes x 4 PEs (SWS)",
        headers=["policy", "runtime(ms)", "steal time(us)"],
        rows=rows,
        notes=[
            "intra-node steals cost ~1/4 of inter-node on the EDR model; "
            "locality-aware policies shave steal time, at some dispersal "
            "risk on drought-heavy workloads",
        ],
    )


def ablate_steal_volume(scale: str = "quick") -> ExperimentResult:
    """Steal-half vs steal-one on the SDC baseline (§2 cites
    Hendler-Shavit: stealing half balances with fewer operations)."""
    factory = _fanout_factory(600, 3e-4)
    rows = []
    for policy in ("one", "half"):
        cfg = SweepConfig(
            npes_list=(8,),
            impls=("sdc",),
            reps=3,
            queue_config=QueueConfig(qsize=2048, task_size=24, sdc_steal=policy),
        )
        cells = summarize_cells(run_sweep(factory, cfg))
        c = cells[0]
        rows.append(
            [policy, c.runtime_mean * 1e3, c.steals_ok, c.steal_time * 1e3,
             c.comm_total]
        )
    return ExperimentResult(
        title="Steal-one vs steal-half (SDC, 8 PEs, 601 tasks)",
        headers=["policy", "runtime(ms)", "steals", "steal time(ms)", "comms"],
        rows=rows,
        notes=[
            "steal-half moves the same work in far fewer operations "
            "(Hendler-Shavit); steal-one pays a full 6-comm protocol per "
            "task moved",
        ],
    )


def ablate_lifelines(scale: str = "quick") -> ExperimentResult:
    """Lifelines (Saraswat'11, cited §2.2) composed with SWS: idle PEs
    quiesce instead of hammering empty queues."""
    factory = _fanout_factory(400, 2e-3)
    rows = []
    for lifelines in (False, True):
        runtimes, failed, comms = [], [], []
        for rep in range(3):
            registry, seeds = factory()
            pool = TaskPool(
                16,
                registry,
                impl="sws",
                queue_config=QueueConfig(qsize=2048, task_size=24),
                lifelines=lifelines,
                seed=100 + rep,
            )
            pool.seed(0, seeds)
            st = pool.run()
            runtimes.append(st.runtime)
            failed.append(st.total_failed_steals)
            comms.append(st.comm["total"])
        n = len(runtimes)
        rows.append(
            [lifelines, sum(runtimes) / n * 1e3, sum(failed) / n,
             sum(comms) / n]
        )
    return ExperimentResult(
        title="Lifelines composed with SWS (16 PEs, coarse tasks)",
        headers=["lifelines", "runtime(ms)", "failed steals", "total comms"],
        rows=rows,
        notes=[
            "§2.2: lifelines 'eliminate unproductive stealing traffic'; "
            "SWS composes with them — failed-steal counts collapse while "
            "runtime holds",
        ],
    )


def ablate_faults(scale: str = "quick") -> ExperimentResult:
    """SWS vs SDC on a fabric that drops messages (no PE dies).

    A dropped message inside SDC's swap-lock window leaves the victim's
    lock held until its lease breaks it, and thieves retry meanwhile;
    SWS's steal takes no lock, so it has none to recover.
    """
    ntasks, npes = 1200, 16
    rows = []
    for seed in (11,) if scale == "quick" else (1, 2, 3, 11, 42):
        for drop in (0.005, 0.02):
            for impl in ("sws", "sdc"):
                executed = []
                reg = TaskRegistry()
                outcome = TaskOutcome(duration=15e-6)

                def leaf(payload, tc):
                    executed.append(payload)
                    return outcome

                fn = reg.register("leaf", leaf)
                pool = TaskPool(
                    npes, reg, impl=impl, seed=seed,
                    fault_plan=FaultPlan(seed=seed, drop_rate=drop),
                )
                pool.seed(0, [Task(fn, i.to_bytes(4, "little"))
                              for i in range(ntasks)])
                st = pool.run()
                rows.append([
                    seed, impl.upper(), drop, ntasks, len(executed),
                    len(set(executed)), st.runtime * 1e3, st.total_steals,
                    st.total_steal_retries,
                    st.total_steal_retries / st.total_steals,
                    st.total_locks_recovered, st.faults["dropped_ops"],
                ])
    return ExperimentResult(
        title=f"Lossy fabric: SWS vs SDC ({npes} PEs, {ntasks} x 15 us tasks)",
        headers=["seed", "impl", "drop", "tasks", "executed", "distinct",
                 "runtime(ms)", "steals", "retries", "retries/steal",
                 "lease breaks", "dropped"],
        rows=rows,
        notes=[
            "SDC's steal holds the victim's swap lock from the lock swap "
            "to the unlock (4 of its 6 communications, Fig. 2); a message "
            "lost in that window leaves the lock held until its lease "
            "breaks it — SWS's fused steal has no lock to lose",
            "retries/steal = timed-out attempts retried per successful "
            "steal; at drop 0.005 the runtime order is not judged (at full "
            "scale, seed 3 runs SWS slower there)",
        ],
    )


# ----------------------------------------------------------------------
# The >2048-PE jumbo smoke
# ----------------------------------------------------------------------
def fig7_jumbo(scale: str = "quick") -> ExperimentResult:
    """Fig-7-class smoke beyond 2048 PEs: 2112 PEs on one engine.

    2112 = 44 nodes x 48 PEs.  The point is that the simulator
    *completes* a beyond-fig7-scale job with every seeded task executed
    exactly once; per-event speed at this scale is tracked by the
    events/sec column of the bench report.
    """
    npes = 2112
    ntasks_per_seed = 4 if scale == "quick" else 8
    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-6))
    pool = TaskPool(
        npes,
        reg,
        impl="sws",
        queue_config=QueueConfig(qsize=256, task_size=32),
        termination="tree",
    )
    # Seed every even PE only: half the machine must steal, so the run
    # exercises cross-PE traffic at full width without the long one-seed
    # spread phase.
    for rank in range(0, npes, 2):
        pool.seed(rank, [Task(reg.id_of("leaf"))
                         for _ in range(ntasks_per_seed)])
    seeded = (npes // 2) * ntasks_per_seed
    stats = pool.run()
    executed = sum(w.tasks_executed for w in stats.workers)
    stolen = sum(w.tasks_stolen for w in stats.workers)
    return ExperimentResult(
        title=f"{npes} PEs smoke (tree termination)",
        headers=["npes", "virtual(ms)", "seeded", "executed", "stolen",
                 "events"],
        rows=[[npes, stats.runtime * 1e3, seeded, executed, stolen,
               pool.ctx.engine.events_processed]],
        notes=[
            "leaf tasks seeded on even PEs; odd PEs acquire work by stealing",
            "completes beyond the paper's 2048-PE fig7 x-axis",
        ],
    )
