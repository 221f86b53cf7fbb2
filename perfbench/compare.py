"""``python3 -m perfbench --compare A.json B.json``: is B worse than A?

A and B are ``result.json`` files of two complete runs.  For every
workload and end-to-end metric the table gives both values, the ratio
with its base, the bound, and a verdict:

``ok``          B's value is not worse than A's by more than the bound
``worse``       it is
``unresolved``  A's own repetitions spread (the distance between their
                quartiles, as a share of the median) wider than the bound,
                so the comparison cannot tell

Run on two results of one commit it is the A/A check; on a parent and a
change it is the before/after table.  Exit code 1 when any row is worse.
"""

from __future__ import annotations

import json

from .spec import END_TO_END, PER_LAYER


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """(B's value over A's, verdict) for one metric of one workload."""
    ratio = b["value"] / a["value"]
    if (a["q3"] - a["q1"]) / a["value"] > bound:
        return ratio, "unresolved"
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    return ratio, "worse" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    worse = 0
    print(f"{'workload':15s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'B/A':>7s} {'bound':>6s}  verdict")
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:15s} missing from {path_b}")
            worse += 1
            continue
        for m in END_TO_END:
            ma, mb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            ratio, word = verdict(ma, mb, m.better, m.bound)
            worse += word == "worse"
            print(f"{name:15s} {m.name:12s} {ma['value']:12.4f} {mb['value']:12.4f} "
                  f"{ratio:7.3f} {m.bound:6.2f}  {word} "
                  f"(base {ma['value']:.4f} {m.unit}, n={ma['count']}/{mb['count']})")
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                print(f"{name:15s} {side}: {w['failed']} of {w['attempted']} "
                      f"operations failed")
                worse += 1
        if a["seed"] == b["seed"]:
            differing = [
                m.name for m in PER_LAYER
                if m.exact and wa["per_layer"].get(m.name) != wb["per_layer"].get(m.name)]
            print(f"{name:15s} counts and simulated statistics: "
                  + (f"differ in {', '.join(differing)}" if differing
                     else "bit-identical"))
    if a["seed"] != b["seed"]:
        print("seeds differ: counts and simulated statistics not compared")
    return 1 if worse else 0
