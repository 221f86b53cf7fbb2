"""``python3 -m perfbench``: the benchmark's one command.

    python3 -m perfbench --workload W --seed N --seconds S --trace 0|1
        one workload, as the driver runs it: prints every metric by name
        with its unit, and as the last line one JSON object
    python3 -m perfbench [--seed N] [--seconds S]
        all six workloads, untraced then traced; writes
        perfbench/out/result.json and one trace file per workload
    python3 -m perfbench --compare A.json B.json
        the A/A and before/after table (see compare.py)

Whatever happens — success, failure, timeout, Ctrl-C — the command returns
only after every process it started has ended and been reaped and every
shared-memory segment they created is gone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

from . import harness
from .spec import PER_LAYER, RUN_SECONDS, WORKLOADS

#: The driver stops a run after 180 s; stop ourselves first, cleanly.
DRIVER_LIMIT_S = 170.0


def _print_metrics(workload: str, metrics: dict) -> None:
    for name, cell in metrics.items():
        spread = (f"  (quartiles {cell['q1']:.6g}-{cell['q3']:.6g}, "
                  f"min {cell['min']:.6g}, max {cell['max']:.6g}, "
                  f"n={cell['count']}, uncalibrated {cell['raw_median']:.6g})"
                  if "count" in cell else "")
        print(f"{workload:15s} {name:40s} {cell['value']:.6g} {cell['unit']}{spread}")


def _report_problems(result: dict) -> None:
    for text in result["warnings"]:
        print(f"warning: {result['workload']}: {text}", file=sys.stderr)
    for text in result["problems"]:
        print(f"FAILED: {result['workload']}: {text}", file=sys.stderr)


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload, one JSON object as the last line."""
    deadline = time.monotonic() + DRIVER_LIMIT_S
    trace = bool(args.trace)
    host = harness.fingerprint()
    result = harness.measure(args.workload, args.seed, args.seconds, trace, deadline)
    if trace:
        # The driver wants every per-layer metric on every workload; one
        # that does not apply to this workload reads 0 (see README.md).
        cells = result["per_layer"]
        metrics = {m.name: cells.get(m.name, {"value": 0.0, "unit": m.unit})
                   for m in PER_LAYER}
    else:
        metrics = result["end_to_end"]
    result["fingerprint"] = dict(host, loadavg_end=os.getloadavg())
    with open(os.path.join(harness.OUT_DIR,
                           f"run-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    _print_metrics(args.workload, metrics)
    _report_problems(result)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": cell["value"], "unit": cell["unit"]}
            for name, cell in metrics.items()},
    }))
    # Failed operations are the driver's to judge from the line above; a
    # process or segment left behind is this command's own failure.
    return 1 if result["leaked"] else 0


def run_all(args: argparse.Namespace) -> int:
    """All six workloads, untraced then traced, into ``result.json``."""
    doc: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {},
                 "fingerprint": harness.fingerprint()}
    if doc["fingerprint"]["noisy"]:
        print("warning: 1-min load average above 0.5 at start; "
              "result flagged noisy", file=sys.stderr)
    attempted = failed = 0
    for workload in WORKLOADS:
        plain = harness.measure(workload, args.seed, args.seconds, trace=False)
        traced = harness.measure(workload, args.seed, args.seconds, trace=True)
        cell = {
            "end_to_end": plain["end_to_end"], "per_layer": traced["per_layer"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "problems": plain["problems"] + traced["problems"],
            "warnings": plain["warnings"] + traced["warnings"],
            "workload": workload,
        }
        doc["workloads"][workload] = cell
        attempted += cell["attempted"]
        failed += cell["failed"]
        _print_metrics(workload, cell["end_to_end"])
        _print_metrics(workload, cell["per_layer"])
        _report_problems(cell)
    doc["failed_frac"] = failed / attempted
    doc["fingerprint"]["loadavg_end"] = os.getloadavg()
    path = os.path.join(harness.OUT_DIR, "result.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    print(f"failed_frac {doc['failed_frac']:.6g} ratio "
          f"({failed} of {attempted} operations)")
    print(f"wrote {os.path.relpath(path)}")
    return 0 if failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        from .compare import compare
        return compare(*args.compare)
    if not os.path.isfile(os.path.join(harness.ROOT, "src", "repro", "__init__.py")):
        print("perfbench: the program under src/repro is not in this checkout",
              file=sys.stderr)
        return 2

    # Turn a polite kill into an exception so the sweeps in ``finally``
    # blocks still run; SIGKILL cannot be helped.
    def _terminate(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGHUP, _terminate)

    harness.become_subreaper()
    shm_before = harness.shm_snapshot()
    code = 1
    try:
        code = run_one(args) if args.workload else run_all(args)
    except harness.BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        code = 3
    except KeyboardInterrupt:
        print("perfbench: interrupted", file=sys.stderr)
        code = 130
    finally:
        # Belt and braces: every child was already swept when it ended.
        left = harness.sweep(set(), grace_s=0.0) + harness.shm_sweep(shm_before)
        if left:
            print(f"perfbench: {left} process(es) or segment(s) were still "
                  f"around at exit and have been removed", file=sys.stderr)
            code = code or 4
    return code


if __name__ == "__main__":
    sys.exit(main())
