"""EXPERIMENTS.md generator: paper-vs-measured for every artifact.

Runs every registered experiment and renders a Markdown report with the
measured series, the paper's reported shape, and a PASS/FAIL shape
verdict.  The checked-in ``EXPERIMENTS.md`` is produced by::

    python -m repro.analysis.markdown --scale full --out EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import datetime
import sys
import time
from pathlib import Path

from .experiments import EXPERIMENTS, ExperimentResult, run_experiment

#: What the paper reports for each artifact, and how we judge the shape.
PAPER_EXPECTATIONS: dict[str, str] = {
    "fig2": "SDC = 6 communications (5 blocking); SWS = 3 (2 blocking).",
    "tab1": "Shared tasks move A → C → F → I; A → I when re-acquired.",
    "fig34": "64-bit stealval packs asteals/valid-epoch/itasks/tail; "
             "worked example: 150 tasks, steal #2 takes 19 at index 612.",
    "fig5": "With 2 completion epochs the owner's acquire never polls for "
            "in-flight steals; with 1 epoch it must.",
    "fig6": "SWS steal time ≈ half of SDC at small volumes; curves "
            "converge as the task copy dominates.",
    "tab2": "BPC: coarse ~5 ms tasks; UTS: ~110 ns tasks — five orders of "
            "magnitude apart in granularity.",
    "fig7": "BPC runtimes near parity (compute-bound); SWS steal and "
            "search time visibly lower, gap growing with PEs; efficiency "
            "high for both; run variation well under 1% of the mean on "
            "the paper's testbed (larger here at reduced workload scale).",
    "fig8": "UTS: SWS ahead in throughput (~9% at scale in the paper), "
            "steal time lower by 3-4x, search time low and flat.",
    "ablate-damping": "Damping has no measurable cost and trims AMO "
                      "traffic on drained queues (paper §4.3).",
    "ablate-epochs": "Both settings correct; epochs pay off under "
                     "acquire churn with in-flight steals (§4.2).",
    "ablate-contention": "SWS 'has significantly better properties when "
                         "a target is contended' (§6).",
    "ablate-granularity": "Fine tasks are sensitive to steal latency; "
                          "coarse tasks tolerate it (§2) — the SWS "
                          "advantage decays toward parity as tasks coarsen.",
    "ablate-latency": "The SDC-SWS absolute gap scales with wire latency "
                      "(three fewer blocking messages per steal).",
    "ablate-v1": "Both stealval layouts steal identically; the epoch "
                 "variant removes the §4.1 management stall.",
    "ablate-steal-volume": "Steal-half balances with far fewer steal "
                           "operations than steal-one (§2, Hendler-Shavit).",
    "ablate-lifelines": "Lifelines eliminate unproductive steal traffic "
                        "(§2.2, Saraswat'11) and compose with SWS.",
    "ablate-bandwidth": "When copies share a victim's link, tail steal "
                        "latency stretches by queued streaming time.",
    "ablate-termination": "Tree detection beats the ring's O(P) rounds, "
                          "increasingly so at scale.",
    "ablate-victims": "Locality-aware victim policies (§2.2) compose "
                      "with SWS and trim steal time on multi-node layouts.",
}


def shape_verdict(exp_id: str, result: ExperimentResult) -> str:
    """Judge the measured rows against the paper's qualitative shape."""
    rows = result.rows
    try:
        if exp_id == "fig2":
            counts = {r[0]: r[1:] for r in rows}
            ok = counts["SDC"] == [6, 5, 1] and counts["SWS"] == [3, 2, 1]
        elif exp_id == "tab1":
            ok = rows[0][1] == "AAA" and rows[-1][1] == "III"
        elif exp_id == "fig34":
            ok = rows[0][2:] == [2, 1, 150, 500]
        elif exp_id == "fig5":
            wait = {r[0]: r[1] for r in rows}
            ok = wait[1] > 0 and wait[2] == 0
        elif exp_id == "fig6":
            small = [r for r in rows if r[0] == 24][0]
            ok = small[4] > 1.6 and rows[-1][4] < small[4]
        elif exp_id == "tab2":
            ok = len(rows) == 4
        elif exp_id in ("fig7", "fig8"):
            cells = {(r[0], r[1]): r for r in rows}
            npes = sorted({k[1] for k in cells})
            steal_ok = all(
                cells[("SWS", n)][8] < cells[("SDC", n)][8] for n in npes
            )
            search_ok = sum(
                cells[("SWS", n)][9] < cells[("SDC", n)][9] for n in npes
            ) >= len(npes) - 1
            ok = steal_ok and search_ok
        elif exp_id == "ablate-damping":
            off, on = rows[0], rows[1]
            ok = on[1] < off[1] * 1.25
        elif exp_id == "ablate-epochs":
            ok = all(r[1] > 0 for r in rows)
        elif exp_id == "ablate-contention":
            by = {r[0]: r for r in rows}
            ok = by["SWS"][2] < by["SDC"][2]
        elif exp_id == "ablate-granularity":
            # Overheads halve throughout; relative advantage ends near parity.
            ok = all(r[5] < r[4] for r in rows) and abs(rows[-1][3] - 100) < 3
        elif exp_id == "ablate-latency":
            gaps = [r[4] for r in rows]
            ok = gaps == sorted(gaps) and rows[-1][3] > 1.5
        elif exp_id == "ablate-v1":
            ok = all(r[1] > 0 for r in rows)
        elif exp_id == "ablate-steal-volume":
            by = {r[0]: r for r in rows}
            ok = by["half"][2] < by["one"][2] and by["half"][1] <= by["one"][1]
        elif exp_id == "ablate-lifelines":
            by = {bool(r[0]): r for r in rows}
            ok = by[True][2] < by[False][2] * 0.5
        elif exp_id == "ablate-bandwidth":
            by = {bool(r[0]): r for r in rows}
            ok = by[True][2] > by[False][2]  # max latency stretches
        elif exp_id == "ablate-termination":
            ok = rows[-1][3] > rows[0][3] > 1.0  # tree advantage grows
        elif exp_id == "ablate-victims":
            by = {r[0]: r for r in rows}
            ok = by["locality"][2] < by["uniform"][2]
        else:
            return "UNJUDGED"
    except (KeyError, IndexError):
        return "UNJUDGED"
    return "PASS" if ok else "FAIL"


def markdown_table(result: ExperimentResult) -> str:
    """Render an experiment's rows as a GitHub-flavoured Markdown table."""
    from .report import format_value

    head = "| " + " | ".join(result.headers) + " |"
    sep = "|" + "|".join("---" for _ in result.headers) + "|"
    body = "\n".join(
        "| " + " | ".join(format_value(v) for v in row) + " |"
        for row in result.rows
    )
    return "\n".join([head, sep, body])


def generate(scale: str = "quick", stream=sys.stdout) -> dict[str, str]:
    """Run all experiments; write the Markdown report; return verdicts."""
    verdicts: dict[str, str] = {}
    stream.write("# EXPERIMENTS — paper vs. measured\n\n")
    stream.write(
        "Generated by `python -m repro.analysis.markdown --scale "
        f"{scale}` on {datetime.date.today().isoformat()}.\n\n"
        "Absolute numbers come from the simulated fabric (calibrated to "
        "EDR InfiniBand; see `repro.fabric.latency`), so only *shapes* are "
        "compared against the paper: who wins, by roughly what factor, "
        "and where trends bend.  Each section records the paper's claim, "
        "the regenerated series, and a shape verdict.\n\n"
    )
    for exp_id in sorted(EXPERIMENTS):
        t0 = time.perf_counter()
        result = run_experiment(exp_id, scale=scale)
        wall = time.perf_counter() - t0
        verdict = shape_verdict(exp_id, result)
        verdicts[exp_id] = verdict
        stream.write(f"## {exp_id}: {result.title}\n\n")
        stream.write(f"**Paper:** {PAPER_EXPECTATIONS.get(exp_id, 'n/a')}\n\n")
        stream.write(f"**Shape verdict:** {verdict}  \n")
        stream.write(f"**Harness:** `benchmarks/` target for `{exp_id}`; "
                     f"regenerated in {wall:.1f}s.\n\n")
        stream.write(markdown_table(result) + "\n\n")
        for note in result.notes:
            stream.write(f"- {note}\n")
        stream.write("\n")
    return verdicts


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; exits non-zero on any shape FAIL."""
    parser = argparse.ArgumentParser(prog="repro.analysis.markdown")
    parser.add_argument("--scale", default="quick", choices=("quick", "full"))
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    args = parser.parse_args(argv)
    if args.out:
        with Path(args.out).open("w") as f:
            verdicts = generate(args.scale, stream=f)
    else:
        verdicts = generate(args.scale)
    fails = [k for k, v in verdicts.items() if v == "FAIL"]
    if fails:
        sys.stderr.write(f"shape FAIL: {fails}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
