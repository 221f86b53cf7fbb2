"""Experiment registry: one entry per table/figure of the paper.

Each experiment function returns an :class:`ExperimentResult` holding the
series the paper's artifact plots (as table rows) plus free-form notes.
A registry record is the function, the paper's claim, and the judge that
decides from the rows whether the claim's shape was reproduced — all
three written beside each other, so adding an experiment is one edit.
``python -m repro sweep`` (:mod:`repro.analysis.sweep`) is the runner;
``benchmarks/bench_experiments.py`` asserts every verdict.

Scales:

* ``quick`` — seconds; used by the test/benchmark suites;
* ``full``  — minutes; the defaults for EXPERIMENTS.md numbers;
* paper-scale parameters are documented in the workload modules but not
  wired to a scale knob (enumerating a 270 B-node tree is not a thing a
  simulator does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from ..core.config import QueueConfig
from ..core.damping import DampingTracker
from ..core.sdc_queue import SdcQueueSystem
from ..core.steal_half import schedule, steal_displacement, steal_volume
from ..core.stealval import StealValEpoch, StealValV1
from ..core.sws_queue import SwsQueueSystem
from ..core.task_state import TaskStateTracker
from ..fabric.latency import EDR_INFINIBAND
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
from .report import ascii_table
from .series import (
    CellSummary,
    relative_improvement,
    speedup_factor,
    summarize_cells,
)
from .sweep import SweepConfig, SweepPoint, run_sweep


@dataclass
class ExperimentResult:
    """Rendered outcome of one experiment."""

    title: str
    headers: list[str]
    rows: list[list]
    notes: list[str] = field(default_factory=list)
    charts: list[str] = field(default_factory=list)
    #: Work units performed by experiments that never touch the fabric
    #: engine (pure encode/decode arithmetic); the bench runner falls
    #: back to this when the engine's event tally is zero, so their
    #: throughput row is not reported as ``events: 0``.
    ops: int = 0
    #: Filled by :func:`run_experiment` from the registry record.
    exp_id: str = ""
    claim: str = ""
    verdict: str = ""

    def render(self, with_charts: bool = False) -> str:
        """Human-readable report block."""
        out = [f"== {self.exp_id}: {self.title} ==", ""]
        out.append(ascii_table(self.headers, self.rows))
        if with_charts:
            out.extend(self.charts)
        for n in self.notes:
            out.append(f"note: {n}")
        return "\n".join(out) + "\n"


class Experiment(NamedTuple):
    """One registry record."""

    fn: Callable[[str], ExperimentResult]
    claim: str                            # what the paper reports
    judge: Callable[[list[list]], bool]   # rows -> was that shape measured


EXPERIMENTS: dict[str, Experiment] = {}


def experiment(exp_id: str, claim: str, judge: Callable[[list[list]], bool]):
    """Register the decorated function as experiment ``exp_id``."""
    def register(fn):
        EXPERIMENTS[exp_id] = Experiment(fn, claim, judge)
        return fn
    return register


def run_experiment(exp_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one registered experiment by id and judge its rows."""
    try:
        exp = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    result = exp.fn(scale)
    result.exp_id, result.claim = exp_id, exp.claim
    result.verdict = "PASS" if exp.judge(result.rows) else "FAIL"
    return result


# ----------------------------------------------------------------------
# Figure 2 — steal communication counts
# ----------------------------------------------------------------------
def _judge_fig2(rows):
    counts = {r[0]: r[1:] for r in rows}
    return counts["SDC"] == [6, 5, 1] and counts["SWS"] == [3, 2, 1]


@experiment("fig2", "SDC = 6 communications (5 blocking); SWS = 3 (2 blocking).",
            _judge_fig2)
def exp_fig2(scale: str = "quick") -> ExperimentResult:
    """Count the one-sided communications of a single successful steal."""
    rows = []
    for impl in ("sdc", "sws"):
        probe = measure_single_steal(impl, volume=8, task_size=24)
        total = sum(probe.comms.get(k, 0) for k in probe.comms if k not in ("total", "blocking", "bytes"))
        blocking = probe.comms.get("blocking", 0)
        rows.append(
            [impl.upper(), probe.comms.get("total", total), blocking,
             probe.comms.get("total", total) - blocking]
        )
    return ExperimentResult(
        title="Steal communication counts (SDC vs SWS)",
        headers=["impl", "total comms", "blocking", "non-blocking"],
        rows=rows,
        notes=["counts are exact fabric-op tallies around one non-wrapped steal"],
    )


# ----------------------------------------------------------------------
# Table 1 — shared-task state machine
# ----------------------------------------------------------------------
@experiment(
    "tab1", "Shared tasks move A → C → F → I; A → I when re-acquired.",
    lambda rows: rows[0][1] == "AAA" and rows[-1][1] == "III",
)
def exp_tab1(scale: str = "quick") -> ExperimentResult:
    """Exercise the A/C/F/I lifecycle on a 3-block allotment."""
    tracker = TaskStateTracker(3)
    trace = [("init", "".join(s.value for s in tracker.states))]
    tracker.claim(0)
    trace.append(("steal 0 claimed", "".join(s.value for s in tracker.states)))
    tracker.claim(1)
    tracker.finish(1)
    trace.append(("steal 1 claimed+finished", "".join(s.value for s in tracker.states)))
    tracker.finish(0)
    tracker.invalidate(0)
    tracker.invalidate(1)
    tracker.invalidate(2)  # unclaimed block re-acquired by owner
    trace.append(("owner reclaimed", "".join(s.value for s in tracker.states)))
    rows = [[step, states] for step, states in trace]
    return ExperimentResult(
        title="Shared task states (Available/Claimed/Finished/Invalid)",
        headers=["event", "block states"],
        rows=rows,
        notes=["transition legality is enforced; see tests/test_task_state.py"],
    )


# ----------------------------------------------------------------------
# Figures 3 & 4 — stealval layouts
# ----------------------------------------------------------------------
@experiment(
    "fig34",
    "64-bit stealval packs asteals/valid-epoch/itasks/tail; worked example: "
    "150 tasks, steal #2 takes 19 at index 612.",
    lambda rows: rows[0][2:] == [2, 1, 150, 500],
)
def exp_fig34(scale: str = "quick") -> ExperimentResult:
    """Show both packed layouts on the paper's worked example."""
    # Fig. 3 example: 2 attempted steals, valid, 150 initial tasks, tail 500.
    v1 = StealValV1.pack(2, True, 150, 500)
    view1 = StealValV1.unpack(v1)
    ve = StealValEpoch.pack(2, 1, 150, 500)
    viewe = StealValEpoch.unpack(ve)
    # 2 packs + 2 unpacks + schedule/volume/displacement evaluations:
    # the "events" of this engine-free experiment.
    ops = 7
    rows = [
        ["fig3 (V1)", f"0x{v1:016x}", view1.asteals, int(view1.valid), view1.itasks, view1.tail],
        ["fig4 (epoch)", f"0x{ve:016x}", viewe.asteals, viewe.epoch, viewe.itasks, viewe.tail],
    ]
    sched = schedule(150)
    next_vol = steal_volume(150, 2)
    disp = steal_displacement(150, 2)
    return ExperimentResult(
        title="Packed stealval layouts (Figures 3 and 4)",
        headers=["layout", "word", "asteals", "valid/epoch", "itasks", "tail"],
        rows=rows,
        notes=[
            f"steal-half schedule for 150 tasks: {sched} (paper: "
            "{75,37,19,9,5,2,1,1,1})",
            f"with asteals=2 the next steal takes {next_vol} tasks starting at "
            f"tail+{disp} = {500 + disp} (paper: 19 tasks at index 612)",
        ],
        ops=ops,
    )


# ----------------------------------------------------------------------
# Figure 5 — acquire with completion epochs
# ----------------------------------------------------------------------
def _judge_fig5(rows):
    wait = {r[0]: r[1] for r in rows}
    return wait[1] > 0 and wait[2] == 0


@experiment(
    "fig5",
    "With 2 completion epochs the owner's acquire never polls for in-flight "
    "steals; with 1 epoch it must.",
    _judge_fig5,
)
def exp_fig5(scale: str = "quick") -> ExperimentResult:
    """Measure acquire-time stalls with 1 vs 2 completion epochs.

    A thief with a slow task copy keeps a steal in flight while the owner
    performs release/acquire cycles; with a single epoch the owner must
    poll for the in-flight steal, with two it proceeds immediately.
    """
    from ..fabric.engine import Delay
    from ..fabric.latency import SLOW_ETHERNET
    from ..shmem.api import ShmemCtx

    rows = []
    for epochs in (1, 2):
        cfg = QueueConfig(qsize=4096, task_size=192, max_epochs=epochs)
        # One PE per node: every hop pays the full inter-node latency.
        ctx = ShmemCtx(2, latency=SLOW_ETHERNET, pes_per_node=1)
        system = SwsQueueSystem(ctx, cfg)
        owner_q, thief_q = system.handle(0), system.handle(1)

        def owner():
            owner_q.enqueue_many([bytes(192)] * 2048)
            yield from owner_q.release()
            # The thief claims 512 tasks at ~18 us; its ~100 us task copy
            # and the passive completion are still in flight when the
            # owner acquires at 40 us (the Figure-5 snapshot).
            yield Delay(40e-6)
            yield from owner_q.acquire()
            yield Delay(5e-3)
            owner_q.progress()

        def thief():
            yield Delay(5e-6)
            res = yield from thief_q.steal(0)
            assert res.success, res.status

        ctx.engine.spawn(owner(), "owner")
        ctx.engine.spawn(thief(), "thief")
        ctx.run()
        rows.append([epochs, owner_q.epoch_wait_time * 1e6])
    return ExperimentResult(
        title="Acquire behaviour with completion epochs",
        headers=["epochs", "owner epoch-wait time (us)"],
        rows=rows,
        notes=["paper §4.2: two epochs sufficed to avoid acquire-time polling"],
    )


# ----------------------------------------------------------------------
# Figure 6 — steal time vs steal volume
# ----------------------------------------------------------------------
def _judge_fig6(rows):
    ratio = {(r[0], r[1]): r[4] for r in rows}
    lo, hi = min(r[1] for r in rows), max(r[1] for r in rows)
    return (
        all(r[3] < r[2] for r in rows)  # SWS faster at every volume
        and all(ratio[ts, lo] > 1.6 and ratio[ts, hi] < ratio[ts, lo]
                for ts in (24, 192))
        # larger tasks converge faster
        and ratio[192, hi] < ratio[24, hi]
    )


@experiment(
    "fig6",
    "SWS steal time ≈ half of SDC at small volumes; curves converge as the "
    "task copy dominates.",
    _judge_fig6,
)
def exp_fig6(scale: str = "quick") -> ExperimentResult:
    """Single-steal latency across volumes and task sizes."""
    volumes = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    if scale == "quick":
        volumes = [2, 8, 32, 128, 512, 1024]
    rows = []
    ratio_notes = {}
    for ts in (24, 192):
        for volume in volumes:
            lat = {}
            for impl in ("sdc", "sws"):
                probe = measure_single_steal(impl, volume, ts, latency=EDR_INFINIBAND)
                lat[impl] = probe.steal_seconds
            rows.append(
                [ts, volume, lat["sdc"] * 1e6, lat["sws"] * 1e6,
                 lat["sdc"] / lat["sws"]]
            )
            ratio_notes[(ts, volume)] = lat["sdc"] / lat["sws"]
    small_ratio = ratio_notes[(24, min(volumes))]
    big_ratio = ratio_notes[(24, max(volumes))]
    from .plots import AsciiChart

    charts = []
    for ts in (24, 192):
        ts_rows = [r for r in rows if r[0] == ts]
        chart = AsciiChart(
            xs=[float(r[1]) for r in ts_rows],
            title=f"fig6: steal time (us), {ts} B tasks",
            log_x=True,
            log_y=True,
            ylabel="us",
        )
        chart.add("sdc", [r[2] for r in ts_rows])
        chart.add("sws", [r[3] for r in ts_rows])
        charts.append(chart.render())
    return ExperimentResult(
        title="Steal operation time vs steal volume",
        headers=["task bytes", "volume", "SDC (us)", "SWS (us)", "SDC/SWS"],
        rows=rows,
        charts=charts,
        notes=[
            f"measured ratio at volume {min(volumes)}: {small_ratio:.2f}x; "
            f"at {max(volumes)}: {big_ratio:.2f}x",
        ],
    )


# ----------------------------------------------------------------------
# Table 2 — workload characteristics
# ----------------------------------------------------------------------
def _judge_tab2(rows):
    by = {r[0]: r for r in rows}
    return (
        len(rows) == 4
        and by["UTS (paper, T1WL)"][1] == 270_751_679_750
        and by["BPC (this repro)"][2] > 1000 * by["UTS (this repro)"][2]
    )


@experiment(
    "tab2",
    "BPC: coarse ~5 ms tasks; UTS: ~110 ns tasks — five orders of magnitude "
    "apart in granularity.",
    _judge_tab2,
)
def exp_tab2(scale: str = "quick") -> ExperimentResult:
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


def _pairs(rows):
    """(SDC row, SWS row) per PE count of a six-panel table, ascending."""
    cells = {(r[0], r[1]): r for r in rows}
    return [(cells["SDC", n], cells["SWS", n])
            for n in sorted({r[1] for r in rows})]


def _judge_fig7(rows):
    pairs = _pairs(rows)
    return (
        # (a/b) parity within 10 %: coarse tasks hide protocol latency
        all(abs(sdc[2] - sws[2]) / sdc[2] < 0.10 for sdc, sws in pairs)
        # (e) steal and (f) search time lower at every PE count
        and all(sws[8] < sdc[8] and sws[9] < sdc[9] for sdc, sws in pairs)
        # (c) both efficient at the smallest scale; (d) SD < 5 % everywhere
        and all(r[5] > 90.0 for r in pairs[0])
        and all(r[6] < 5.0 for r in rows)
    )


@experiment(
    "fig7",
    "BPC runtimes near parity (compute-bound); SWS steal and search time "
    "visibly lower, gap growing with PEs; efficiency high for both; run "
    "variation well under 1% of the mean on the paper's testbed (larger here "
    "at reduced workload scale).",
    _judge_fig7,
)
def exp_fig7(scale: str = "quick") -> ExperimentResult:
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


def _judge_fig8(rows):
    pairs = _pairs(rows)
    nearly = len(pairs) - 1  # tiny-tree noise may flip one isolated point
    factors = [sdc[8] / sws[8] for sdc, sws in pairs]
    return (
        all(sws[8] < sdc[8] for sdc, sws in pairs)
        and sum(sws[9] < sdc[9] for sdc, sws in pairs) >= nearly
        and sum(sws[2] <= sdc[2] * 1.02 for sdc, sws in pairs) >= nearly
        # a clear mean steal-time factor, not noise
        and sum(factors) / len(factors) > 1.3
    )


@experiment(
    "fig8",
    "UTS: SWS ahead in throughput (~9% at scale in the paper), steal time "
    "lower by 3-4x, search time low and flat.",
    _judge_fig8,
)
def exp_fig8(scale: str = "quick") -> ExperimentResult:
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
def _judge_protocols(rows):
    from ..runtime.protocols import get_protocol

    by = {r[0]: r for r in rows}
    sws, sdc = by["sws"], by["sdc"]
    return (
        # measured comms / blocking equal each protocol's declared budget
        all((r[2], r[3]) == (get_protocol(r[0]).comms_total,
                             get_protocol(r[0]).comms_blocking) for r in rows)
        and all(r[8] == 0 or r[1] == "at-least-once" for r in rows)
        and all(by[p][4] < sdc[4] for p in ("sws", "sws-v1", "localized"))
        # mean runtime no worse than SDC's, or the gap inside SWS's own
        # seed-to-seed range
        and (sws[5] <= sdc[5] or 100 * (sws[5] - sdc[5]) / sws[5] <= sws[6])
    )


#: Victim-selection seeds of the protocols flat run.
_PROTOCOL_SEEDS = range(40, 50)


@experiment(
    "protocols",
    "Per steal SDC needs 6 communications (5 blocking), the SWS family 3 "
    "(2), the fence-free multiplicity deque 3 (3) and may hand a task out "
    "twice; cheaper steals make the SWS family's runs no slower than SDC's.",
    _judge_protocols,
)
def exp_protocols(scale: str = "quick") -> ExperimentResult:
    """Every registered steal protocol under one flat workload.

    Extends the Figure 2/6/7 comparisons across the protocol zoo
    (:mod:`repro.runtime.protocols`): measured per-steal communication
    counts (single-steal probe) next to the registry's declared budget,
    plus an 8-PE flat-workload run per protocol and victim-selection
    seed with the semantics-aware oracle attached — duplicate handouts
    reported for the at-least-once entry, zero for the exactly-once ones.
    """
    from ..runtime.pool import run_pool
    from ..runtime.protocols import all_protocols

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
# Ablations (DESIGN.md §5)
# ----------------------------------------------------------------------
def _judge_damping(rows):
    off, on = rows  # no runtime penalty, total traffic not inflated
    return on[1] < off[1] * 1.25 and on[2] <= off[2] * 1.10


@experiment(
    "ablate-damping",
    "Damping has no measurable cost and trims AMO traffic on drained queues "
    "(paper §4.3).",
    _judge_damping,
)
def exp_ablation_damping(scale: str = "quick") -> ExperimentResult:
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


def _judge_epochs(rows):
    runtimes = [r[1] for r in rows]  # same regime: sanity, not a win
    return min(runtimes) > 0 and max(runtimes) < min(runtimes) * 2.0


@experiment(
    "ablate-epochs",
    "Both settings correct; epochs pay off under acquire churn with "
    "in-flight steals (§4.2).",
    _judge_epochs,
)
def exp_ablation_epochs(scale: str = "quick") -> ExperimentResult:
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


def _judge_contention(rows):
    sdc, sws = rows  # as many steals succeed, mean under half, tail lower
    return sws[1] >= sdc[1] and sws[2] < sdc[2] / 2 and sws[3] < sdc[3]


@experiment(
    "ablate-contention",
    "SWS 'has significantly better properties when a target is contended' "
    "(§6).",
    _judge_contention,
)
def exp_ablation_contention(scale: str = "quick") -> ExperimentResult:
    """Many thieves hitting one victim: protocol behaviour under contention."""
    from ..fabric.engine import Delay
    from ..shmem.api import ShmemCtx

    nthieves = 8 if scale == "quick" else 16
    rows = []
    for impl in ("sdc", "sws"):
        cfg = QueueConfig(qsize=2048, task_size=24)
        ctx = ShmemCtx(nthieves + 1)
        system = (SwsQueueSystem if impl == "sws" else SdcQueueSystem)(ctx, cfg)
        victim_q = system.handle(0)
        done: list[float] = []

        def owner():
            victim_q.enqueue_many([bytes(24)] * 1024)
            yield from victim_q.release()

        def thief(rank):
            q = system.handle(rank)
            yield Delay(1e-6)
            t0 = ctx.engine.now
            res = yield from q.steal(0)
            if res.success:
                done.append(ctx.engine.now - t0)

        ctx.engine.spawn(owner(), "owner")
        for r in range(1, nthieves + 1):
            ctx.engine.spawn(thief(r), f"t{r}")
        ctx.run()
        mean = sum(done) / len(done) if done else 0.0
        rows.append(
            [impl.upper(), len(done), mean * 1e6, max(done) * 1e6 if done else 0.0]
        )
    return ExperimentResult(
        title=f"Simultaneous steals from one victim ({nthieves} thieves)",
        headers=["impl", "successful", "mean steal (us)", "max steal (us)"],
        rows=rows,
        notes=["SDC thieves serialize behind the queue lock; SWS claims "
               "pipeline through the NIC atomic unit (paper §6: 'better "
               "properties when a target is contended')"],
    )


@experiment(
    "ablate-granularity",
    "Fine tasks are sensitive to steal latency; coarse tasks tolerate it "
    "(§2) — the SWS advantage decays toward parity as tasks coarsen.",
    # overhead lower at every grain; parity at the coarsest
    lambda rows: all(r[5] < r[4] for r in rows) and abs(rows[-1][3] - 100) < 3,
)
def exp_ablation_granularity(scale: str = "quick") -> ExperimentResult:
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


def _judge_latency(rows):
    gaps = [r[4] for r in rows]
    return gaps == sorted(gaps) and all(r[3] > 1.5 for r in rows)


@experiment(
    "ablate-latency",
    "The SDC-SWS absolute gap scales with wire latency (three fewer "
    "blocking messages per steal).",
    _judge_latency,
)
def exp_ablation_latency(scale: str = "quick") -> ExperimentResult:
    """Network-latency sensitivity: scale all fabric latencies.

    The SWS win is a round-trip-count argument, so slower wires should
    widen the absolute steal-time gap.
    """
    factors = (0.25, 1.0, 4.0) if scale == "quick" else (0.25, 1.0, 4.0, 16.0)
    rows = []
    for f in factors:
        lat = EDR_INFINIBAND.scaled(f)
        times = {}
        for impl in ("sdc", "sws"):
            probe = measure_single_steal(impl, 8, 48, latency=lat)
            times[impl] = probe.steal_seconds
        rows.append(
            [f, times["sdc"] * 1e6, times["sws"] * 1e6,
             times["sdc"] / times["sws"],
             (times["sdc"] - times["sws"]) * 1e6]
        )
    return ExperimentResult(
        title="Fabric-latency sensitivity (single 8-task steal)",
        headers=["latency x", "SDC (us)", "SWS (us)", "ratio", "gap (us)"],
        rows=rows,
        notes=[
            "the absolute SDC-SWS gap grows linearly with wire latency — "
            "three fewer blocking messages each pay the round trip",
        ],
    )


@experiment(
    "ablate-v1",
    "Both stealval layouts steal identically; the epoch variant removes the "
    "§4.1 management stall.",
    lambda rows: [r[0] for r in rows] == ["sws-v1", "sws"]
    and all(r[1] > 0 for r in rows),
)
def exp_ablation_v1(scale: str = "quick") -> ExperimentResult:
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


@experiment(
    "ablate-termination",
    "Tree detection beats the ring's O(P) rounds, increasingly so at scale.",
    lambda rows: all(r[3] > 1.0 for r in rows) and rows[-1][3] > rows[0][3],
)
def exp_ablation_termination(scale: str = "quick") -> ExperimentResult:
    """Ring vs tree termination: pure detection latency.

    A pool seeded with zero tasks measures nothing but detection — the
    virtual runtime is the time for the detector to notice the empty
    system.  Ring rounds cost O(P) hops; tree rounds O(log P).
    """
    from ..runtime.pool import TaskPool

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


def _judge_victims(rows):
    by = {r[0]: r for r in rows}
    runtimes = [r[1] for r in rows]  # every policy in the same regime
    return (by["locality"][2] < by["uniform"][2]
            and max(runtimes) < min(runtimes) * 1.2)


@experiment(
    "ablate-victims",
    "Locality-aware victim policies (§2.2) compose with SWS and trim steal "
    "time on multi-node layouts.",
    _judge_victims,
)
def exp_ablation_victims(scale: str = "quick") -> ExperimentResult:
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
            from ..runtime.pool import TaskPool

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


def _judge_bandwidth(rows):
    off, on = rows  # max and mean steal latency both stretch
    return on[2] > off[2] and on[3] > off[3]


@experiment(
    "ablate-bandwidth",
    "When copies share a victim's link, tail steal latency stretches by "
    "queued streaming time.",
    _judge_bandwidth,
)
def exp_ablation_bandwidth(scale: str = "quick") -> ExperimentResult:
    """Concurrent bulk steals under link serialization.

    With per-PE link occupancy on, N thieves copying large blocks from
    one victim queue behind its egress engine — the regime where Fig. 6's
    convergence argument (copies dominate) turns into outright contention.
    """
    from dataclasses import replace

    from ..fabric.engine import Delay
    from ..shmem.api import ShmemCtx

    nthieves = 4
    rows = []
    for link_serialize in (False, True):
        lat = replace(EDR_INFINIBAND, link_serialize=link_serialize)
        ctx = ShmemCtx(nthieves + 1, latency=lat, pes_per_node=1)
        system = SwsQueueSystem(ctx, QueueConfig(qsize=16384, task_size=192))
        victim = system.handle(0)
        lats: list[float] = []

        def owner():
            victim.enqueue_many([bytes(192)] * 8192)
            yield from victim.release()

        def thief(rank):
            q = system.handle(rank)
            yield Delay(1e-6)
            t0 = ctx.engine.now
            r = yield from q.steal(0)
            assert r.success
            lats.append(ctx.engine.now - t0)

        ctx.engine.spawn(owner(), "o")
        for r in range(1, nthieves + 1):
            ctx.engine.spawn(thief(r), f"t{r}")
        ctx.run()
        rows.append(
            [link_serialize, min(lats) * 1e6, max(lats) * 1e6,
             sum(lats) / len(lats) * 1e6]
        )
    return ExperimentResult(
        title=f"{nthieves} concurrent bulk steals, link serialization on/off",
        headers=["link serialize", "min steal (us)", "max steal (us)",
                 "mean steal (us)"],
        rows=rows,
        notes=[
            "with link serialization the victim's egress engine is a "
            "shared resource: tail steal latency stretches by the queued "
            "copies ahead of it",
        ],
    )


def _judge_steal_volume(rows):
    one, half = rows  # far fewer steals, fewer comms, no slower
    return (half[2] < one[2] / 2 and half[4] < one[4]
            and half[1] <= one[1] * 1.05)


@experiment(
    "ablate-steal-volume",
    "Steal-half balances with far fewer steal operations than steal-one "
    "(§2, Hendler-Shavit).",
    _judge_steal_volume,
)
def exp_ablation_steal_volume(scale: str = "quick") -> ExperimentResult:
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


def _judge_lifelines(rows):
    off, on = rows  # >10x fewer failed steals, comms halved, runtime held
    return (on[2] < off[2] * 0.1 and on[3] < off[3] * 0.5
            and on[1] < off[1] * 1.3)


@experiment(
    "ablate-lifelines",
    "Lifelines eliminate unproductive steal traffic (§2.2, Saraswat'11) and "
    "compose with SWS.",
    _judge_lifelines,
)
def exp_ablation_lifelines(scale: str = "quick") -> ExperimentResult:
    """Lifelines (Saraswat'11, cited §2.2) composed with SWS: idle PEs
    quiesce instead of hammering empty queues."""
    factory = _fanout_factory(400, 2e-3)
    rows = []
    for lifelines in (False, True):
        runtimes, failed, comms = [], [], []
        for rep in range(3):
            registry, seeds = factory()
            from ..runtime.pool import TaskPool

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


# ----------------------------------------------------------------------
# The >2048-PE jumbo smoke
# ----------------------------------------------------------------------
@experiment(
    "fig7_jumbo",
    "The paper's Fig. 7 x-axis ends at 2048 PEs; a 2112-PE run completes "
    "with every seeded task executed exactly once and work moving by steals.",
    lambda rows: rows[0][0] == 2112 and rows[0][3] == rows[0][2]
    and rows[0][4] > 0,
)
def exp_fig7_jumbo(scale: str = "quick") -> ExperimentResult:
    """Fig-7-class smoke beyond 2048 PEs: 2112 PEs on one engine.

    2112 = 44 nodes x 48 PEs.  The point is that the simulator
    *completes* a beyond-fig7-scale job with every seeded task executed
    exactly once; per-event speed at this scale is tracked by the
    events/sec column of the bench report.
    """
    from ..runtime.pool import TaskPool

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


# ----------------------------------------------------------------------
# Serving — open-system SDC vs SWS rate sweep (docs/serving.md)
# ----------------------------------------------------------------------
def _judge_serving(rows):
    by = {(r[0], r[1]): r for r in rows}
    return (
        # p99 grows with offered load (rows are in load order per impl)
        all(by[i, "0.25x"][6] <= by[i, "0.90x"][6] <= by[i, "1.50x"][6]
            for i in ("SDC", "SWS"))
        and by["SWS", "0.90x"][6] <= by["SDC", "0.90x"][6]
        # shed only past capacity
        and all(r[4] == 0 for r in rows if r[1] != "1.50x")
    )


@experiment(
    "serving",
    "Cheaper steals matter most near saturation: tail latency grows with "
    "offered load, SWS's p99 is no worse than SDC's at 0.9x capacity, and "
    "requests are shed only past capacity.",
    _judge_serving,
)
def exp_serving(scale: str = "quick") -> ExperimentResult:
    """Tail latency and SLO attainment vs offered load, SDC vs SWS.

    A Poisson arrival stream is served by a 4-PE pool at three offered
    loads relative to the pool's service capacity (npes / task_s):
    underloaded, near saturation, and overloaded.  The overloaded rate
    runs with a shed threshold, so the shed column is the overload
    signal; the latency percentiles come from the virtual-clock
    enqueue-to-completion distribution of the same seeded trace for both
    protocols.
    """
    from ..runtime.serving import run_serve

    npes = 4
    task_s = 2e-6
    duration = 1e-3 if scale == "quick" else 4e-3
    slo_s = 5e-5  # 50us virtual SLO
    capacity = npes / task_s  # tasks/s the pool can absorb
    loads = [
        ("0.25x", 0.25, None),
        ("0.90x", 0.90, None),
        ("1.50x", 1.50, 64),
    ]
    rows = []
    for impl in ("sdc", "sws"):
        for label, factor, shed_threshold in loads:
            rate = int(capacity * factor)
            stats = run_serve(
                npes,
                impl=impl,
                arrival=f"poisson:{rate}",
                duration_s=duration,
                slo_s=slo_s,
                seed=11,
                task_s=task_s,
                shed_threshold=shed_threshold,
            )
            s = stats.serving
            pct = s.latency.percentiles()
            to_us = 1e6 / 1e15  # ticks -> microseconds
            rows.append([
                impl.upper(),
                label,
                s.emitted,
                s.injected,
                s.shed,
                round(pct["p50"] * to_us, 2),
                round(pct["p99"] * to_us, 2),
                round(pct["p999"] * to_us, 2),
                f"{s.slo_fraction:.1%}",
            ])
    return ExperimentResult(
        title="Open-system serving: tail latency vs offered load "
              f"({npes} PEs, {slo_s * 1e6:.0f}us SLO)",
        headers=["impl", "load", "emitted", "injected", "shed",
                 "p50 us", "p99 us", "p999 us", "SLO"],
        rows=rows,
        notes=[
            f"capacity = npes/task_s = {capacity:,.0f} tasks/s; the 1.50x "
            f"row runs with shed threshold 64 (overload signal)",
            "same seeded Poisson trace for both impls at each rate; "
            "latency is virtual enqueue-to-completion time",
        ],
    )


def _serving_bench(impl: str, scale: str) -> ExperimentResult:
    """One near-saturation serving run — the bench row for one impl.

    Single rate, single seed: the sweep runner measures the wall of the
    whole open-system machinery (arrival events, latency sketch,
    termination gating) per protocol, and the deterministic payload row
    (counts, percentiles, checksum) doubles as a change detector.
    """
    from ..runtime.serving import run_serve

    npes = 4
    task_s = 2e-6
    duration = 1e-3 if scale == "quick" else 4e-3
    rate = int(0.9 * npes / task_s)
    stats = run_serve(
        npes,
        impl=impl,
        arrival=f"poisson:{rate}",
        duration_s=duration,
        slo_s=5e-5,
        seed=11,
        task_s=task_s,
    )
    s = stats.serving
    pct = s.latency.percentiles()
    to_us = 1e6 / 1e15
    row = [
        impl.upper(), rate, s.emitted, s.injected, s.completed, s.shed,
        round(pct["p50"] * to_us, 2), round(pct["p99"] * to_us, 2),
        round(pct["p999"] * to_us, 2), f"{s.slo_fraction:.1%}",
        f"{s.checksum:#018x}",
    ]
    return ExperimentResult(
        title=f"Serving bench: {impl.upper()} at 0.9x capacity "
              f"({npes} PEs, Poisson)",
        headers=["impl", "rate", "emitted", "injected", "completed", "shed",
                 "p50 us", "p99 us", "p999 us", "SLO", "checksum"],
        rows=[row],
        notes=["near-saturation open-system run with the conservation "
               "oracle attached (a violation raises: an `error` row, not a "
               "FAIL); see `serving` for the full rate sweep"],
    )


#: completed + shed == emitted
_SERVING_BENCH = (
    "An open-system run near saturation closes its books: every emitted "
    "request is completed or shed, under the conservation oracle.",
    lambda rows: rows[0][4] + rows[0][5] == rows[0][2],
)


@experiment("serving_sws", *_SERVING_BENCH)
def exp_serving_sws(scale: str = "quick") -> ExperimentResult:
    """The near-saturation serving row under SWS."""
    return _serving_bench("sws", scale)


@experiment("serving_sdc", *_SERVING_BENCH)
def exp_serving_sdc(scale: str = "quick") -> ExperimentResult:
    """The near-saturation serving row under SDC."""
    return _serving_bench("sdc", scale)
