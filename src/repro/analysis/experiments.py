"""Experiment registry: one row per table/figure of the paper.

:data:`EXPERIMENTS` is a literal table of rows ``(id, claim, judge,
module)``: the paper's claim, the judge that decides from the rows
whether the claim's shape was reproduced, and the body module that
measures it.  A body is the function of that module named after the id
(``-`` spelled ``_``) and returns an :class:`ExperimentResult` holding the
series the paper's artifact plots (as table rows) plus free-form notes.

Bodies are grouped by what they import, so running one compiles only its
closure: :mod:`~repro.analysis.exp_steal` (one steal on a bare
``ShmemCtx``), :mod:`~repro.analysis.exp_pool` (``TaskPool`` runs over the
workloads and the process-count sweep),
:mod:`~repro.analysis.exp_serve` (the serving frontends, and the
cross-backend row),
:mod:`~repro.analysis.exp_shm` (the real-time queues, counted in word
ops) and :mod:`~repro.analysis.explore` (the schedule explorer).  This
module imports none of them; :func:`run_experiment` imports a row's
module on first use.  ``python -m repro sweep`` (:mod:`repro.analysis.sweep`) is the
runner; ``benchmarks/bench_experiments.py`` asserts every verdict.

Scales:

* ``quick`` — seconds; used by the test/benchmark suites;
* ``full``  — minutes; the defaults for EXPERIMENTS.md numbers;
* paper-scale parameters are documented in the workload modules but not
  wired to a scale knob (enumerating a 270 B-node tree is not a thing a
  simulator does).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, NamedTuple

from .report import ascii_table


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
    #: Filled by :func:`run_experiment` from the registry row.
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
    """One registry row (its id is the table key)."""

    claim: str                            # what the paper reports
    judge: Callable[[list[list]], bool]   # rows -> was that shape measured
    module: str                           # body module under repro.analysis


def body(exp_id: str) -> Callable[[str], ExperimentResult]:
    """The body of experiment ``exp_id``, importing its module."""
    try:
        exp = EXPERIMENTS[exp_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {exp_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None
    module = import_module(f"{__package__}.{exp.module}")
    return getattr(module, exp_id.replace("-", "_"))


def run_experiment(exp_id: str, scale: str = "quick") -> ExperimentResult:
    """Run one registered experiment by id and judge its rows."""
    result = body(exp_id)(scale)
    exp = EXPERIMENTS[exp_id]
    result.exp_id, result.claim = exp_id, exp.claim
    result.verdict = "PASS" if exp.judge(result.rows) else "FAIL"
    return result


# ----------------------------------------------------------------------
# Judges: pure functions of an experiment's rows
# ----------------------------------------------------------------------
def _judge_fig2(rows):
    counts = {r[0]: r[1:] for r in rows}
    return counts["SDC"] == [6, 5, 1] and counts["SWS"] == [3, 2, 1]


def _judge_fig5(rows):
    wait = {r[0]: r[1] for r in rows}
    return wait[1] > 0 and wait[2] == 0


def _judge_fig2_shm(rows):
    # (RMWs, stores, loads, block copies, word ops, stripe locks)
    ops = {(r[0], r[1]): r[2:] for r in rows}
    return (
        ops["SWS", "claim"] == [2, 0, 0, 1, 3, 2]      # Fig. 2's 3
        and ops["SWS", "empty"] == [1, 0, 0, 0, 1, 1]
        and ops["SWS", "damped"] == [0, 0, 1, 0, 1, 0]  # §4.3: no RMW
        and (ops["SDC", "claim"][5], ops["SDC", "empty"][5]) == (3, 2)
        and ops["ff-mult", "claim"][0] == 0 and ops["ff-mult", "claim"][1] == 1
    )


def _judge_fig5_shm(rows):
    # one owner cost at every capacity and epoch count; only 1 epoch waits
    return (len({tuple(r[3:7]) for r in rows}) == 1
            and all((r[7] == "yes") == (r[0] == 1) for r in rows))


def _judge_xbackend(rows):
    # one task count and one checksum per workload and protocol
    return all(len(set(r[2:5])) == 1 and len(set(r[5:]) - {"-"}) == 1
               for r in rows)


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


def _judge_tab2(rows):
    by = {r[0]: r for r in rows}
    return (
        len(rows) == 4
        and by["UTS (paper, T1WL)"][1] == 270_751_679_750
        and by["BPC (this repro)"][2] > 1000 * by["UTS (this repro)"][2]
    )


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


def _judge_damping(rows):
    off, on = rows  # no runtime penalty, total traffic not inflated
    return on[1] < off[1] * 1.25 and on[2] <= off[2] * 1.10


def _judge_epochs(rows):
    runtimes = [r[1] for r in rows]  # same regime: sanity, not a win
    return min(runtimes) > 0 and max(runtimes) < min(runtimes) * 2.0


def _judge_contention(rows):
    sdc, sws = rows  # as many steals succeed, mean under half, tail lower
    return sws[1] >= sdc[1] and sws[2] < sdc[2] / 2 and sws[3] < sdc[3]


def _judge_latency(rows):
    gaps = [r[4] for r in rows]
    return gaps == sorted(gaps) and all(r[3] > 1.5 for r in rows)


def _judge_victims(rows):
    by = {r[0]: r for r in rows}
    runtimes = [r[1] for r in rows]  # every policy in the same regime
    return (by["locality"][2] < by["uniform"][2]
            and max(runtimes) < min(runtimes) * 1.2)


def _judge_bandwidth(rows):
    off, on = rows  # max and mean steal latency both stretch
    return on[2] > off[2] and on[3] > off[3]


def _judge_steal_volume(rows):
    one, half = rows  # far fewer steals, fewer comms, no slower
    return (half[2] < one[2] / 2 and half[4] < one[4]
            and half[1] <= one[1] * 1.05)


def _judge_lifelines(rows):
    off, on = rows  # >10x fewer failed steals, comms halved, runtime held
    return (on[2] < off[2] * 0.1 and on[3] < off[3] * 0.5
            and on[1] < off[1] * 1.3)


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


def _judge_faults(rows):
    heavy = max(r[2] for r in rows)
    at = {(r[0], r[1]): r for r in rows if r[2] == heavy}
    return (
        # every run executes every task exactly once
        all(r[3] == r[4] == r[5] for r in rows)
        # only SDC's steal takes a lock, so only SDC recovers one
        and all(r[10] == 0 if r[1] == "SWS" else r[10] > 0 for r in rows)
        # at the heaviest drop rate SDC retries more per steal and runs longer
        and all(at[s, "SDC"][9] > 1.5 * at[s, "SWS"][9]
                and at[s, "SDC"][6] > at[s, "SWS"][6]
                for s in {r[0] for r in rows})
    )


#: completed + shed == emitted
_SERVING_BENCH = (
    "An open-system run near saturation closes its books: every emitted "
    "request is completed or shed, under the conservation oracle.",
    lambda rows: rows[0][4] + rows[0][5] == rows[0][2],
)


# ----------------------------------------------------------------------
# The table: id -> (claim, judge, body module)
# ----------------------------------------------------------------------
EXPERIMENTS: dict[str, Experiment] = {
    "fig2": Experiment(
        "SDC = 6 communications (5 blocking); SWS = 3 (2 blocking).",
        _judge_fig2, "exp_steal"),
    "tab1": Experiment(
        "Shared tasks move A → C → F → I; A → I when re-acquired.",
        lambda rows: rows[0][1] == "AAA" and rows[-1][1] == "III",
        "exp_steal"),
    "fig2-shm": Experiment(
        "On shared memory a winning SWS steal is 2 locked RMWs and 1 block "
        "copy (Fig. 2's 3), an empty claim 1 RMW, and a damped attempt on "
        "a known-empty victim 1 lock-free load and no RMW (§4.3).  The SDC "
        "shim takes 3 stripe locks per steal (2 when empty) and, unlike "
        "the paper, copies inside its lock and sends no ack; the "
        "fence-free deque steals with no RMW, only its tail store.",
        _judge_fig2_shm, "exp_shm"),
    "fig34": Experiment(
        "64-bit stealval packs asteals/valid-epoch/itasks/tail; worked "
        "example: 150 tasks, steal #2 takes 19 at index 612.",
        lambda rows: rows[0][2:] == [2, 1, 150, 500], "exp_steal"),
    "fig5": Experiment(
        "With 2 completion epochs the owner's acquire never polls for "
        "in-flight steals; with 1 epoch it must.",
        _judge_fig5, "exp_steal"),
    "fig5-shm": Experiment(
        "On shared memory too the SWS owner's release + acquire cycle "
        "costs the same word ops at any capacity and epoch count, and "
        "with 2 completion epochs an acquire never waits on a claim still "
        "in flight; with 1 it must.",
        _judge_fig5_shm, "exp_shm"),
    "fig6": Experiment(
        "SWS steal time ≈ half of SDC at small volumes; curves converge as "
        "the task copy dominates.",
        _judge_fig6, "exp_steal"),
    "tab2": Experiment(
        "BPC: coarse ~5 ms tasks; UTS: ~110 ns tasks — five orders of "
        "magnitude apart in granularity.",
        _judge_tab2, "exp_pool"),
    "fig7": Experiment(
        "BPC runtimes near parity (compute-bound); SWS steal and search "
        "time visibly lower, gap growing with PEs; efficiency high for "
        "both; run variation well under 1% of the mean on the paper's "
        "testbed (larger here at reduced workload scale).",
        _judge_fig7, "exp_pool"),
    "fig8": Experiment(
        "UTS: SWS ahead in throughput (~9% at scale in the paper), steal "
        "time lower by 3-4x, search time low and flat.",
        _judge_fig8, "exp_pool"),
    "protocols": Experiment(
        "Per steal SDC needs 6 communications (5 blocking), the SWS family "
        "3 (2), the fence-free multiplicity deque 3 (3) and may hand a task "
        "out twice; cheaper steals make the SWS family's runs no slower "
        "than SDC's.",
        _judge_protocols, "exp_pool"),
    "ablate-damping": Experiment(
        "Damping has no measurable cost and trims AMO traffic on drained "
        "queues (paper §4.3).",
        _judge_damping, "exp_pool"),
    "ablate-epochs": Experiment(
        "Both settings correct; epochs pay off under acquire churn with "
        "in-flight steals (§4.2).",
        _judge_epochs, "exp_pool"),
    "ablate-contention": Experiment(
        "SWS 'has significantly better properties when a target is "
        "contended' (§6).",
        _judge_contention, "exp_steal"),
    "ablate-faults": Experiment(
        "SDC's steal holds the victim's swap lock from its first message "
        "to its fourth, SWS's takes none: on a fabric that drops messages "
        "only SDC needs lock recovery, and at a 2 % drop rate it retries "
        "over 1.5x as often per steal and finishes later; both still run "
        "every task exactly once.",
        _judge_faults, "exp_pool"),
    "ablate-granularity": Experiment(
        "Fine tasks are sensitive to steal latency; coarse tasks tolerate "
        "it (§2) — the SWS advantage decays toward parity as tasks "
        "coarsen.",
        # overhead lower at every grain; parity at the coarsest
        lambda rows: all(r[5] < r[4] for r in rows)
        and abs(rows[-1][3] - 100) < 3,
        "exp_pool"),
    "ablate-latency": Experiment(
        "The SDC-SWS absolute gap scales with wire latency (three fewer "
        "blocking messages per steal).",
        _judge_latency, "exp_steal"),
    "ablate-v1": Experiment(
        "Both stealval layouts steal identically; the epoch variant "
        "removes the §4.1 management stall.",
        lambda rows: [r[0] for r in rows] == ["sws-v1", "sws"]
        and all(r[1] > 0 for r in rows),
        "exp_pool"),
    "ablate-termination": Experiment(
        "Tree detection beats the ring's O(P) rounds, increasingly so at "
        "scale.",
        lambda rows: all(r[3] > 1.0 for r in rows) and rows[-1][3] > rows[0][3],
        "exp_pool"),
    "ablate-victims": Experiment(
        "Locality-aware victim policies (§2.2) compose with SWS and trim "
        "steal time on multi-node layouts.",
        _judge_victims, "exp_pool"),
    "ablate-bandwidth": Experiment(
        "When copies share a victim's link, tail steal latency stretches by "
        "queued streaming time.",
        _judge_bandwidth, "exp_steal"),
    "ablate-steal-volume": Experiment(
        "Steal-half balances with far fewer steal operations than "
        "steal-one (§2, Hendler-Shavit).",
        _judge_steal_volume, "exp_pool"),
    "ablate-lifelines": Experiment(
        "Lifelines eliminate unproductive steal traffic (§2.2, "
        "Saraswat'11) and compose with SWS.",
        _judge_lifelines, "exp_pool"),
    "explore-race": Experiment(
        "Fusing discover and claim into one fetch-add removes the claim "
        "race (§4): split back into a read then an add, SWS duplicates or "
        "loses work, and the oracle-armed explorer catches it in every "
        "workload at 4 PEs under every policy; the fused SWS is clean on "
        "the same schedules.",
        # fused clean everywhere; unfused caught everywhere at 4 PEs
        lambda rows: all(r[6].startswith("0/") for r in rows)
        and all(r[4] != "-" for r in rows if r[1] == 4),
        "explore"),
    "fig7_jumbo": Experiment(
        "The paper's Fig. 7 x-axis ends at 2048 PEs; a 2112-PE run "
        "completes with every seeded task executed exactly once and work "
        "moving by steals.",
        lambda rows: rows[0][0] == 2112 and rows[0][3] == rows[0][2]
        and rows[0][4] > 0,
        "exp_pool"),
    "serving": Experiment(
        "Cheaper steals matter most near saturation: tail latency grows "
        "with offered load, SWS's p99 is no worse than SDC's at 0.9x "
        "capacity, and requests are shed only past capacity.",
        _judge_serving, "exp_serve"),
    "xbackend": Experiment(
        "The simulated fabric and real processes run the same work: for "
        "SWS and SDC, a UTS tree and BPC each execute the oracle's task "
        "count on both and the oracle's checksum on mp, and one arrival "
        "trace completes with the oracle's serving checksum on both.",
        _judge_xbackend, "exp_serve"),
    "serving_sws": Experiment(*_SERVING_BENCH, "exp_serve"),
    "serving_sdc": Experiment(*_SERVING_BENCH, "exp_serve"),
}
