"""``python -m repro`` — demo, schedule exploration, and trace replay.

With no arguments: a 10-second sanity demonstration (package version,
the Figure-2 communication counts, pointers to the full harness).

Subcommands::

    python -m repro --protocol P [--backend fabric|threads|mp|all]
    python -m repro explore [--workload W] [--impl I] [--policy P]
                            [--seeds N] [--dfs-depth D] [--out DIR]
    python -m repro replay TRACE.json [--strict] [--shrink]
    python -m repro sweep [--scenarios S] [--scale quick|full] [--jobs N]
                          [--tables] [--csv-dir DIR] [--markdown FILE]
                          [--diff CODE_VERSION] [--out FILE] [--matrix ...]
    python -m repro mp [--workload synthetic|uts] [--impl sws|sdc]
                       [--npes N] [--ntasks N | --tree NAME] [--verify]
    python -m repro serve --arrival poisson:RATE --duration T [--slo MS]
                          [--backend fabric|threads|mp|all] [--impl I]
                          [--npes N] [--shed-threshold K] [--elastic PLAN]

``--protocol`` runs one registered steal protocol (``sws``, ``sws-v1``,
``sdc``, ``ff-mult``, ``localized`` — see docs/protocols.md) across the
chosen substrates, verifying its declared semantics contract on each.

``explore`` sweeps same-timestamp event orderings under the invariant
oracle and writes every failing schedule as a replayable JSON trace;
``replay`` re-executes such a trace bit-identically (the local half of
the CI-artifact-to-repro workflow; see docs/testing.md); ``sweep`` is the
experiment runner — registered experiments / matrix cells fan out across
a process pool, each finished job is one row of the sqlite experiment
table, and the ASCII tables, CSVs, EXPERIMENTS.md and the diff against
another code version are views of those rows (see docs/reproducing.md,
docs/performance.md); ``mp`` runs a workload end-to-end on the
multiprocess substrate — real OS processes over shared memory (see
docs/backends.md); ``serve`` runs the open-system serving mode —
streaming arrivals, tail-latency SLOs, shedding and elastic PE
membership across any of the three substrates (see docs/serving.md).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .runtime.protocols import get_protocol, protocol_names


def _demo() -> int:
    """Print the version, the Figure-2 headline, and pointers."""
    from .analysis.experiments import run_experiment

    print(f"repro {__version__} — SWS structured-atomic work stealing "
          f"(ICPP 2021 reproduction)\n")
    print(run_experiment("fig2").render())
    print("full harness: python -m repro sweep --scenarios all --tables")
    print("schedule fuzzing: python -m repro explore --help")
    print("docs: README.md, DESIGN.md, EXPERIMENTS.md, docs/")
    return 0


def _run_protocol_fabric(proto, npes: int, ntasks: int) -> bool:
    from .runtime.pool import run_pool
    from .runtime.registry import TaskOutcome, TaskRegistry
    from .runtime.task import Task

    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-6))
    seeds = [Task(reg.id_of("leaf")) for _ in range(ntasks)]
    stats = run_pool(npes, reg, seeds, impl=proto.name, oracle=True)
    executed = sum(w.tasks_executed for w in stats.workers)
    steals = sum(w.tasks_stolen for w in stats.workers)
    print(
        f"  fabric:  {npes} PEs, {executed} executed "
        f"({executed - ntasks} duplicate(s)), {steals} tasks stolen, "
        f"virtual runtime {stats.runtime * 1e3:.3f} ms — oracle clean"
    )
    return True


def _report_race(label: str, proto, loot, kept, ntasks: int) -> bool:
    """Print one shim race's verdict under the protocol's contract.

    Tasks are ``range(ntasks)`` — their own buffer indices, so a task
    stolen twice is an index handed out twice.
    """
    from collections import Counter

    tasks = list(range(ntasks))
    stolen = [t for lane in loot for t in lane]
    if proto.semantics.exactly_once:
        ok = sorted(stolen + kept) == tasks
        print(
            f"  {label} {len(stolen)} stolen + {len(kept)} kept "
            f"partitions all {ntasks} tasks exactly: {ok}"
        )
    else:
        ok = set(stolen) | set(kept) == set(tasks)
        dups = sum(1 for c in Counter(stolen).values() if c > 1)
        print(
            f"  {label} {len(stolen)} stolen + {len(kept)} kept covers "
            f"all {ntasks} tasks: {ok} ({dups} duplicated index(es))"
        )
    return ok


def _run_protocol_race(proto, backend: str, ntasks: int) -> bool:
    """The protocol's hammer on ``backend``: thief threads or processes
    against one owner (4 thieves, 8 releases, 3 acquires)."""
    label = f"{backend}:"
    if proto.mp_impl is None:
        print(f"  {label:8} (no {backend} substrate for this protocol)")
        return True
    if backend == "threads":
        from .threads.protocol import hammer
    else:
        from .mp.queue import hammer_mp as hammer
    loot, kept = hammer(list(range(ntasks)), impl=proto.mp_impl)
    return _report_race(f"{label:8}", proto, loot, kept, ntasks)


def _cmd_protocol(args: argparse.Namespace) -> int:
    """Run one registered protocol across the requested backends."""
    proto = get_protocol(args.protocol)
    backends = (
        ("fabric", "threads", "mp")
        if args.backend == "all"
        else (args.backend,)
    )
    print(
        f"{proto.name}: {proto.title}\n"
        f"  semantics: {proto.semantics.name} "
        f"({proto.semantics.description})\n"
        f"  steal cost: {proto.comms_total} comms "
        f"({proto.comms_blocking} blocking), "
        f"victims: {proto.default_victim}"
    )
    ok = True
    for backend in backends:
        if backend == "fabric":
            ok &= _run_protocol_fabric(proto, args.npes, args.ntasks)
        else:
            ok &= _run_protocol_race(proto, backend, args.ntasks)
    if not ok:
        print("FAIL: a backend violated the protocol's semantics contract")
        return 1
    return 0


def _check_choice(args: argparse.Namespace, flag: str, valid) -> None:
    """argparse's ``choices=`` for names another module owns, checked
    once the handler has imported that module."""
    value = getattr(args, flag.lstrip("-"))
    if value not in valid:
        args.error(f"argument {flag}: invalid choice: {value!r} "
                   f"(choose from {', '.join(map(repr, valid))})")


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.replay is not None:
        # `explore --replay T` == `replay T`: reproduce a recorded trace.
        args.trace = args.replay
        return _cmd_replay(args)
    from .analysis.explore import WORKLOADS, explore, shrink_trace
    from .fabric.scheduler import POLICIES

    _check_choice(args, "--workload", (*WORKLOADS, "all"))
    _check_choice(args, "--policy", [p for p in POLICIES if p != "replay"])
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    impls = protocol_names() if args.impl == "all" else (args.impl,)
    out = Path(args.out) if args.out else None
    failures = 0
    written = []
    for wl in workloads:
        for impl in impls:
            report = explore(
                wl,
                impl,
                policy=args.policy,
                seeds=range(args.seed_base, args.seed_base + args.seeds),
                dfs_depth=args.dfs_depth,
                max_runs=args.max_runs,
                npes=args.npes,
            )
            print(report.render())
            for i, fail in enumerate(report.failures):
                failures += 1
                trace = fail.trace
                if args.shrink:
                    trace, runs = shrink_trace(trace)
                    print(f"  shrunk to {len(trace.choices)} choices "
                          f"({runs} replays)")
                if out is not None:
                    out.mkdir(parents=True, exist_ok=True)
                    path = out / f"{wl}-{impl}-{args.policy}-{fail.trace.seed}-{i}.json"
                    path.write_text(trace.to_json())
                    written.append(path)
    if written:
        print(f"\n{len(written)} failing trace(s) written to {args.out}:")
        for p in written:
            print(f"  {p}")
    if failures:
        print(f"\nFAIL: {failures} schedule(s) violated the protocol oracle")
        return 1
    print("\nall explored schedules oracle-clean")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        text = Path(args.trace).read_text()
    except OSError as exc:
        args.error(f"cannot read trace {args.trace}: {exc.strerror}")
    from .analysis.explore import replay_trace, shrink_trace
    from .fabric.scheduler import ScheduleTrace

    trace = ScheduleTrace.from_json(text)
    meta = trace.meta
    print(f"replaying {args.trace}: workload={meta.get('workload')} "
          f"impl={meta.get('impl')} choices={len(trace.choices)}")
    if args.shrink:
        trace, runs = shrink_trace(trace)
        print(f"shrunk to {len(trace.choices)} choices ({runs} replays)")
        if args.out:
            Path(args.out).write_text(trace.to_json())
            print(f"wrote {args.out}")
    result = replay_trace(trace, strict=args.strict)
    if result.ok:
        print(f"run is clean: {result.events} events, "
              f"virtual runtime {result.runtime:.6g}s")
        return 0
    print(f"reproduced [{result.check}] after {result.events} events:")
    print(f"  {result.detail}")
    return 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .analysis.experiments import EXPERIMENTS
    from .analysis.sweep import MP_SCENARIOS, SweepJob

    jobs: list[SweepJob] = []
    if args.matrix:
        impls = args.impls.split(",")
        trees = args.workloads.split(",")
        npes_list = [int(n) for n in args.npes.split(",")]
        for tree in trees:
            for impl in impls:
                for npes in npes_list:
                    for seed in range(args.seed_base, args.seed_base + args.seeds):
                        jobs.append(SweepJob.cell(tree, impl, npes, seed))
    else:
        every = args.scenarios == "all"
        names = sorted(EXPERIMENTS) if every else args.scenarios.split(",")
        unknown = [n for n in names if n not in EXPERIMENTS]
        if unknown:
            print(f"unknown scenario(s) {', '.join(unknown)}; valid ids: "
                  f"{', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
            return 2
        jobs = [SweepJob.bench(name, args.scale) for name in names]
        if every:
            # Multiprocess-substrate scenarios ride along in the report.
            jobs += [SweepJob.mp(*mp) for mp in MP_SCENARIOS]

    if args.no_cache:
        if args.diff:
            print("--diff reads the table: drop --no-cache", file=sys.stderr)
            return 2
        return _sweep(args, jobs, None)
    from .analysis.table import Table

    table = Table(args.cache)
    try:
        return _sweep(args, jobs, table)
    finally:
        table.close()


def _sweep(args: argparse.Namespace, jobs: list, table) -> int:
    """Run ``jobs`` into ``table``, then render the views asked for."""
    import json

    from .analysis.experiments import ExperimentResult
    from .analysis.sweep import bench_report, run_jobs

    outcome = run_jobs(
        jobs,
        workers=args.jobs,
        table=table,
        refresh=args.refresh,
        progress=print if not args.quiet else None,
    )
    print(
        f"\n{len(jobs)} job(s): {outcome.hits} cached, "
        f"{len(jobs) - outcome.hits} ran ({outcome.mode}, "
        f"{outcome.workers} worker(s)), {outcome.wall_s:.2f}s wall, "
        f"code {outcome.code_version}"
    )

    if not args.matrix:
        report = bench_report(outcome)
        width = max(map(len, report["scenarios"]))
        for name, s in sorted(report["scenarios"].items()):
            tag = " (cached)" if s["cached"] else ""
            print(
                f"  {name:{width}s} {s['wall_s']:8.3f}s  {s['events']:>9d} events"
                f"  {s['events_per_sec']:>12,.0f} ev/s{tag}"
            )
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True))
            print(f"wrote {args.out}")

    # Views of the rows: nothing below runs an experiment.
    results = [
        ExperimentResult(**rec["payload"]) for rec in outcome.records
        if rec["spec"]["kind"] == "bench" and rec["status"] == "done"
    ]
    if args.tables:
        for result in results:
            print(result.render(with_charts=True))
    if args.csv_dir:
        from .analysis.report import write_csv

        for result in results:
            path = write_csv(Path(args.csv_dir) / f"{result.exp_id}.csv",
                             result.headers, result.rows)
            print(f"wrote {path}")
    if args.markdown:
        from .analysis.markdown import render_document

        Path(args.markdown).write_text(render_document(results, args.scale))
        print(f"wrote {args.markdown}")
    rc = 0
    if args.diff:
        rc = _diff_rows(table, outcome, args.diff)
    failed = outcome.failed()
    if failed:
        print(f"not PASS: {', '.join(failed)}", file=sys.stderr)
        for rec in outcome.records:
            if rec["error"]:
                print(f"--- {rec['spec']['name']}\n{rec['error']}", file=sys.stderr)
        rc = rc or 1
    return rc


def _diff_rows(table, outcome, other: str) -> int:
    """``--diff``: each job's row against the same job's at ``other``."""
    from .analysis.table import diff_payloads, render_diff

    changed = shared = 0
    for rec in outcome.records:
        before = table.get(rec["spec"], other)
        if before is None:
            continue
        shared += 1
        diffs = diff_payloads(before["payload"], rec["payload"])
        print(f"== {rec['spec']['name']} ({other} -> {outcome.code_version}) ==")
        print(render_diff(diffs))
        changed += bool(diffs)
    if not shared:
        print(f"no row of these jobs at code version {other!r}; the table "
              f"holds: {', '.join(table.code_versions())}", file=sys.stderr)
        return 2
    return 1 if changed else 0


def _parse_crash(specs, point, respawn, seed):
    """``--crash RANK@N`` strings -> a CrashPlan (None when no kills)."""
    if not specs:
        return None
    from .mp.faults import CrashKill, CrashPlan

    kills = []
    for spec in specs:
        try:
            rank_s, after_s = spec.split("@", 1)
            rank = -1 if rank_s in ("any", "*") else int(rank_s)
            kills.append(CrashKill(rank, int(after_s), point))
        except ValueError as exc:
            raise SystemExit(
                f"bad --crash spec {spec!r} (want RANK@N or any@N): {exc}"
            ) from None
    return CrashPlan(seed=seed, kills=tuple(kills), respawn=respawn)


def _cmd_mp(args: argparse.Namespace) -> int:
    if args.npes < 2:
        args.error(f"argument --npes: must be >= 2, got {args.npes}")
    from .core.results import StealStatus
    from .mp.driver import run_mp

    crash = _parse_crash(
        args.crash, args.crash_point, args.respawn, args.seed
    )
    result = run_mp(
        args.workload,
        args.impl,
        args.npes,
        ntasks=args.ntasks,
        tree=args.tree,
        seed=args.seed,
        damping=not args.no_damping,
        verify=args.verify,
        crash=crash,
    )
    s = result.summary()
    print(
        f"mp/{s['impl']} {s['workload']} on {s['npes']} processes: "
        f"{s['executed']} tasks in {s['wall_s']:.3f}s wall"
    )
    print(
        f"  created={s['created']} completed={s['completed']} "
        f"steals={s['steals']} tasks_stolen={s['tasks_stolen']}"
    )
    hist = result.steal_volume_histogram()
    if hist:
        print("  steal volumes: "
              + ", ".join(f"{v}x{n}" for v, n in hist.items()))
    for p in result.pes:
        stolen = p.steals.get(StealStatus.STOLEN.value, 0)
        print(
            f"  PE {p.rank}: executed={p.executed} steals={stolen} "
            f"releases={p.releases} probes={p.probes} "
            f"demotions={p.demotions}"
        )
    if result.at_least_once:
        print(
            f"  crash recovery: killed ranks {s['crashed_ranks']} "
            f"(respawned {s['respawned_ranks']}), "
            f"{s['duplicates']} duplicate executions, "
            f"{s['lease_breaks']} lease breaks, scavenged "
            + ", ".join(f"{k}={v}" for k, v in s["scavenged"].items())
            + f", recovery {s['recovery_wall_s']:.3f}s"
        )
        if not result.conserved:
            print(
                f"FAIL: at-least-once accounting violated — "
                f"{s['executed_unique']} distinct tasks executed "
                f"(expected {result.expected_executed}), unique checksum "
                f"{result.unique_checksum:#x} (expected "
                f"{result.expected_checksum:#x})"
            )
            return 1
        print(
            f"verified: all {result.expected_executed} tasks ran at "
            f"least once, none lost (unique checksum "
            f"{result.unique_checksum:#018x})"
        )
        return 0
    if args.verify:
        if not result.conserved:
            print(
                f"FAIL: conservation violated — executed {s['executed']} "
                f"(expected {result.expected_executed}), checksum "
                f"{result.checksum:#x} (expected "
                f"{result.expected_checksum:#x})"
            )
            return 1
        print(
            f"verified: {result.expected_executed} tasks, zero "
            f"lost/duplicated (checksum {result.checksum:#018x})"
        )
    return 0


def _serve_fabric(args: argparse.Namespace, slo_s: float) -> tuple[int, int]:
    """One fabric serving run; returns (checksum, shed)."""
    from .runtime.serving import run_serve

    stats = run_serve(
        args.npes,
        impl=args.impl,
        arrival=args.arrival,
        duration_s=args.duration,
        slo_s=slo_s,
        seed=args.seed,
        task_s=args.task_s,
        shed_threshold=args.shed_threshold,
        elastic=args.elastic,
    )
    s = stats.serving
    pct = s.latency.percentiles()
    to_us = 1e6 / 1e15  # virtual latency is in ticks (1 fs)
    print(
        f"  fabric:  {args.npes} PEs, {s.emitted} arrivals -> "
        f"{s.injected} injected + {s.shed} shed, {s.completed} completed"
    )
    print(
        f"           p50={pct['p50'] * to_us:.2f}us "
        f"p99={pct['p99'] * to_us:.2f}us "
        f"p999={pct['p999'] * to_us:.2f}us (virtual)"
        + (f", SLO attained {s.slo_fraction:.1%}" if s.slo_ticks else "")
    )
    if s.leaves or s.joins:
        print(
            f"           elastic: {s.leaves} leave(s), {s.joins} join(s), "
            f"{s.handoffs} residue task(s) handed off"
        )
    print(f"           checksum {s.checksum:#018x} — oracle clean")
    return s.checksum, s.shed


def _serve_threads(args: argparse.Namespace, slo_s: float) -> int:
    from .threads.serving import run_serve_threads

    res = run_serve_threads(
        args.arrival,
        args.duration,
        seed=args.seed,
        impl=args.impl,
        nthieves=max(1, args.npes - 1),
        slo_s=slo_s,
    )
    s = res.serving
    pct = s.latency.percentiles()
    print(
        f"  threads: 1 owner + {max(1, args.npes - 1)} thieves, "
        f"{s.emitted} arrivals, {s.completed} claimed "
        f"(p50={pct['p50'] / 1e3:.1f}us p99={pct['p99'] / 1e3:.1f}us "
        f"claim latency)"
        + (f", SLO {s.slo_fraction:.1%}" if s.slo_ticks else "")
    )
    print(f"           checksum {s.checksum:#018x}")
    return s.checksum


def _serve_mp(args: argparse.Namespace, slo_s: float) -> int:
    from .mp.driver import run_mp_serve

    res = run_mp_serve(
        args.arrival,
        args.duration,
        impl=args.impl,
        npes=args.npes,
        seed=args.seed,
        slo_s=slo_s,
    )
    s = res.serving
    pct = s.latency.percentiles()
    print(
        f"  mp:      {args.npes} processes, {s.emitted} arrivals, "
        f"{s.completed} completed in {res.wall_s:.3f}s wall "
        f"(p50={pct['p50'] / 1e3:.1f}us p99={pct['p99'] / 1e3:.1f}us)"
        + (f", SLO {s.slo_fraction:.1%}" if s.slo_ticks else "")
    )
    print(f"           checksum {s.checksum:#018x}")
    return s.checksum


def _cmd_serve(args: argparse.Namespace) -> int:
    backends = (
        ("fabric", "threads", "mp")
        if args.backend == "all"
        else (args.backend,)
    )
    if args.backend != "fabric" and (args.shed_threshold or args.elastic):
        if args.backend == "all":
            print("note: --shed-threshold/--elastic apply to the fabric "
                  "run only")
        else:
            print("error: --shed-threshold/--elastic need --backend fabric",
                  file=sys.stderr)
            return 2
    slo_s = args.slo * 1e-3 if args.slo else 0.0
    print(
        f"serve/{args.impl}: {args.arrival} over {args.duration * 1e3:g}ms"
        + (f", SLO {args.slo:g}ms" if args.slo else "")
        + (f", elastic {args.elastic}" if args.elastic else "")
    )
    checksums = {}
    shed = 0
    for backend in backends:
        if backend == "fabric":
            checksums["fabric"], shed = _serve_fabric(args, slo_s)
        elif backend == "threads":
            checksums["threads"] = _serve_threads(args, slo_s)
        else:
            checksums["mp"] = _serve_mp(args, slo_s)
    if len(checksums) > 1:
        if shed:
            print("(fabric shed arrivals; cross-backend checksum "
                  "comparison skipped)")
        elif len(set(checksums.values())) == 1:
            print(f"all {len(checksums)} backends completed the identical "
                  f"task set (checksum {checksums['fabric']:#018x})")
        else:
            print("FAIL: backends completed different task sets: "
                  + ", ".join(f"{b}={c:#x}" for b, c in checksums.items()))
            return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--protocol", default=None, choices=protocol_names(),
                        help="run one registered steal protocol across "
                             "backends (see docs/protocols.md)")
    parser.add_argument("--backend", default="all",
                        choices=("fabric", "threads", "mp", "all"),
                        help="with --protocol: which substrate(s) to run")
    parser.add_argument("--npes", type=int, default=8,
                        help="with --protocol: fabric PE count")
    parser.add_argument("--ntasks", type=int, default=300,
                        help="with --protocol: tasks per backend run")
    sub = parser.add_subparsers(dest="cmd")

    p_ex = sub.add_parser("explore", help="sweep event schedules under the oracle")
    p_ex.add_argument("--workload", default="all",
                      help="an exploration workload, or all (a wrong name "
                           "lists them)")
    p_ex.add_argument("--impl", default="all",
                      choices=(*protocol_names(), "all"))
    p_ex.add_argument("--policy", default="random",
                      help="a scheduler policy (a wrong name lists them)")
    p_ex.add_argument("--seeds", type=int, default=20,
                      help="number of seeds (random/pct)")
    p_ex.add_argument("--seed-base", type=int, default=0,
                      help="first seed (nightly CI shards by this)")
    p_ex.add_argument("--dfs-depth", type=int, default=6,
                      help="decision points enumerated exhaustively (dfs)")
    p_ex.add_argument("--max-runs", type=int, default=512,
                      help="branch cap for dfs")
    p_ex.add_argument("--npes", type=int, default=4)
    p_ex.add_argument("--shrink", action="store_true",
                      help="shrink failing traces before writing them")
    p_ex.add_argument("--out", default=None,
                      help="directory for failing-trace JSON files")
    p_ex.add_argument("--replay", metavar="TRACE", default=None,
                      help="re-execute a recorded trace instead of sweeping")
    p_ex.add_argument("--strict", action="store_true",
                      help="with --replay: verify recorded ready-set widths")
    p_ex.set_defaults(fn=_cmd_explore, error=p_ex.error)

    p_rp = sub.add_parser("replay", help="re-execute a recorded schedule trace")
    p_rp.add_argument("trace", help="trace JSON written by explore")
    p_rp.add_argument("--strict", action="store_true",
                      help="verify ready-set widths against the recording")
    p_rp.add_argument("--shrink", action="store_true",
                      help="shrink the trace before replaying")
    p_rp.add_argument("--out", default=None,
                      help="write the shrunk trace here")
    p_rp.set_defaults(fn=_cmd_replay, error=p_rp.error)

    p_sw = sub.add_parser(
        "sweep", help="run experiments into the table; render views of it"
    )
    p_sw.add_argument("--scenarios", default="all",
                      help="comma-separated experiment ids, or 'all' (every "
                           "registered experiment plus the mp rows)")
    p_sw.add_argument("--scale", default="quick", choices=("quick", "full"),
                      help="quick = seconds per experiment; full = the "
                           "EXPERIMENTS.md runs")
    p_sw.add_argument("--jobs", type=int, default=None,
                      help="worker processes (default: nproc, capped at 2 "
                           "under CI; 1 runs serially in this process)")
    p_sw.add_argument("--cache", default="results/experiments.db",
                      help="the experiment table (a sqlite file)")
    p_sw.add_argument("--no-cache", action="store_true",
                      help="neither read nor write the table")
    p_sw.add_argument("--refresh", action="store_true",
                      help="re-run rows already done, replacing them")
    p_sw.add_argument("--tables", action="store_true",
                      help="print each experiment's ASCII table and charts")
    p_sw.add_argument("--csv-dir", default=None, metavar="DIR",
                      help="write one CSV per experiment")
    p_sw.add_argument("--markdown", default=None, metavar="FILE",
                      help="write the EXPERIMENTS.md document")
    p_sw.add_argument("--diff", default=None, metavar="CODE_VERSION",
                      help="compare each row, cell by cell and exactly, with "
                           "the same job's row at another code version; "
                           "exit 1 on any difference")
    p_sw.add_argument("--out", default=None, metavar="FILE",
                      help="dump the rows' wall_s / events columns as JSON")
    p_sw.add_argument("--quiet", action="store_true",
                      help="suppress per-job progress lines")
    p_sw.add_argument("--matrix", action="store_true",
                      help="run a seed×impl×workload matrix instead of "
                           "registered experiments")
    p_sw.add_argument("--workloads", default="test_tiny",
                      help="matrix: comma-separated named UTS trees")
    p_sw.add_argument("--impls", default="sdc,sws",
                      help="matrix: comma-separated queue impls")
    p_sw.add_argument("--npes", default="4",
                      help="matrix: comma-separated PE counts")
    p_sw.add_argument("--seeds", type=int, default=3,
                      help="matrix: seeds per cell")
    p_sw.add_argument("--seed-base", type=int, default=100)
    p_sw.set_defaults(fn=_cmd_sweep)

    p_mp = sub.add_parser(
        "mp", help="run a workload on the multiprocess shared-memory substrate"
    )
    p_mp.add_argument("--workload", default="synthetic",
                      choices=("synthetic", "uts"))
    p_mp.add_argument("--impl", default="sws", choices=("sws", "sdc"))
    p_mp.add_argument("--npes", type=int, default=4,
                      help="worker processes (PEs)")
    p_mp.add_argument("--ntasks", type=int, default=2000,
                      help="synthetic: tasks seeded on PE 0")
    p_mp.add_argument("--tree", default="test_tiny",
                      help="uts: named tree (test_tiny, test_small, ...)")
    p_mp.add_argument("--seed", type=int, default=0)
    p_mp.add_argument("--no-damping", action="store_true",
                      help="disable the §4.3 damping state machine")
    p_mp.add_argument("--verify", action="store_true",
                      help="check count + checksum against the sequential "
                           "oracle; nonzero exit on mismatch")
    p_mp.add_argument("--crash", action="append", metavar="RANK@N",
                      help="SIGKILL RANK after its N-th task (repeatable; "
                           "rank 'any' draws a seeded random rank); "
                           "switches the run to at-least-once accounting")
    p_mp.add_argument("--crash-point", default="exec",
                      choices=("exec", "steal", "lock"),
                      help="where the kill lands: between tasks, mid-steal "
                           "after the claim, or holding a stripe lock")
    p_mp.add_argument("--respawn", action="store_true",
                      help="supervisor restarts each crashed rank once")
    p_mp.set_defaults(fn=_cmd_mp, error=p_mp.error)

    p_sv = sub.add_parser(
        "serve", help="open-system serving: streaming arrivals with "
                      "tail-latency SLOs (docs/serving.md)"
    )
    p_sv.add_argument("--arrival", default="poisson:50000",
                      metavar="KIND:ARGS",
                      help="arrival process: poisson:RATE, fixed:RATE, "
                           "bursty:LO,HI[,DLO,DHI], diurnal:BASE,PEAK"
                           "[,PERIOD] (rates in tasks/s)")
    p_sv.add_argument("--duration", type=float, default=2e-3,
                      help="arrival horizon in seconds (virtual on fabric, "
                           "trace length elsewhere)")
    p_sv.add_argument("--slo", type=float, default=0.0, metavar="MS",
                      help="latency SLO in milliseconds (0 = no SLO "
                           "accounting)")
    p_sv.add_argument("--impl", default="sws", choices=("sws", "sdc"))
    p_sv.add_argument("--backend", default="fabric",
                      choices=("fabric", "threads", "mp", "all"))
    p_sv.add_argument("--npes", type=int, default=4)
    p_sv.add_argument("--seed", type=int, default=0)
    p_sv.add_argument("--task-s", type=float, default=2e-6,
                      help="fabric: virtual service time per task")
    p_sv.add_argument("--shed-threshold", type=int, default=None,
                      metavar="K",
                      help="fabric: shed arrivals when every active queue "
                           "holds >= K tasks")
    p_sv.add_argument("--elastic", default=None, metavar="PLAN",
                      help="fabric: membership plan "
                           "('leave:RANK@T,join:RANK@T' or 'seeded')")
    p_sv.set_defaults(fn=_cmd_serve)

    # main() with no argv is the library entry point (and the historic
    # behaviour): run the demo, never read sys.argv.
    args = parser.parse_args(argv if argv is not None else [])
    if args.cmd is None:
        if args.protocol is not None:
            return _cmd_protocol(args)
        return _demo()
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
