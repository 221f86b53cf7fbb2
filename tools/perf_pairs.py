#!/usr/bin/env python
"""Alternating before/after pairs of one perfbench workload.

    python3 tools/perf_pairs.py --base HEAD^ --workload mp_uts --seed 7
    make perf-pairs BASE=HEAD^ WORKLOAD=mp_uts SEED=7     # the same

Adds a ``git worktree`` of BASE under ``.perf-pairs/`` and runs
``python3 -m perfbench --workload W --seed S --trace 0`` in it and in
this checkout, ten times each, alternating which side goes first; the
run length is perfbench's own, the same on both sides.
Each run's last line is perfbench's result object; nothing under
``perfbench/`` is written but its own ``out/``.  Prints, per end-to-end
metric, both medians, B/A (change over base) for every pair, the pairs
the change wins and the base's interquartile range.  Exits 1 when any
run failed an operation, was not ``correct`` or exited non-zero.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKTREE = ROOT / ".perf-pairs" / "base"

#: Alternating pairs per comparison: fewer cannot show a 9-of-10 win.
PAIRS = 10


def run(cwd: Path, args) -> tuple[dict, bool]:
    """One perfbench run in ``cwd``: (its result object, clean?)."""
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", args.workload,
         "--seed", str(args.seed), "--trace", "0"],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit(f"perfbench in {cwd} printed no result line "
                 f"(rc {proc.returncode}):\n{proc.stderr}")
    clean = proc.returncode == 0 and result["correct"] and not result["failed"]
    if not clean:
        print(f"FAILED run in {cwd}: rc {proc.returncode}, failed "
              f"{result['failed']} of {result['attempted']}\n{proc.stderr}",
              file=sys.stderr)
    return result, clean


def report(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> None:
    print(f"{'metric':12s} {'base':>9s} {'change':>9s} {'B/A':>6s} "
          f"{'wins':>6s} {'base IQR':>9s}  gap>IQR  B/A per pair")
    for name in pairs[0][0]["metrics"]:
        a = [base["metrics"][name]["value"] for base, _ in pairs]
        b = [change["metrics"][name]["value"] for _, change in pairs]
        ratios = [y / x for x, y in zip(a, b)]
        lower = better.get(name, "lower") == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        q1, _, q3 = statistics.quantiles(a, n=4)
        gap = statistics.median(a) - statistics.median(b)
        print(f"{name:12s} {statistics.median(a):9.4g} "
              f"{statistics.median(b):9.4g} {statistics.median(ratios):6.3f} "
              f"{wins:3d}/{len(pairs):<2d} {q3 - q1:9.3g}  "
              f"{'yes' if (gap if lower else -gap) > q3 - q1 else 'no':7s}  "
              + " ".join(f"{r:.3f}" for r in ratios))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    git = ["git", "-C", str(ROOT)]
    shutil.rmtree(WORKTREE.parent, ignore_errors=True)
    subprocess.run(git + ["worktree", "prune"], check=True)
    subprocess.run(git + ["worktree", "add", "--detach", "--quiet",
                          str(WORKTREE), args.base], check=True)
    try:
        rev = subprocess.run(git + ["rev-parse", "--short", args.base],
                             capture_output=True, text=True).stdout.strip()
        print(f"{args.workload}: base {args.base} ({rev}) vs this checkout, "
              f"{PAIRS} pairs, seed {args.seed}")
        pairs, clean = [], True
        for i in range(PAIRS):
            sides = {"base": WORKTREE, "change": ROOT}
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            got = {}
            for side in order:
                got[side], ok = run(sides[side], args)
                clean = clean and ok
            pairs.append((got["base"], got["change"]))
            print(f"pair {i + 1:2d}: " + "  ".join(
                f"{side} wall_s {got[side]['metrics']['wall_s']['value']:.4f}"
                for side in order), flush=True)
        report(pairs, better)
    finally:
        subprocess.run(git + ["worktree", "remove", "--force", str(WORKTREE)])
        shutil.rmtree(WORKTREE.parent, ignore_errors=True)
    if not clean:
        print("at least one run failed: see above", file=sys.stderr)
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
