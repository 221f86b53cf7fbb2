#!/usr/bin/env python
"""Fail when a `perfbench --compare` table shows a changed simulated statistic: after
`differ in` only names ending in `.calls`, or given with --allow NAME, may appear."""
import argparse, re, sys  # noqa: E401

ap = argparse.ArgumentParser(description=__doc__)
ap.add_argument("table", type=argparse.FileType())
ap.add_argument("--allow", action="append", default=[], metavar="NAME")
args = ap.parse_args()
rows = re.findall(r"^(\S+) .*differ in (.*)$", args.table.read(), re.M)
moved = [(f"{w}:{n}", n) for w, names in rows for n in names.split(", ")]
calls = [tag for tag, n in moved if n.endswith(".calls")]
print("call counts that moved (informational):", ", ".join(calls) or "none")
bad = [tag for tag, n in moved if not n.endswith(".calls") and n not in args.allow]
sys.exit(f"simulated statistics changed, undeclared: {', '.join(bad)}" if bad else 0)
