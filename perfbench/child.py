"""One repetition of one workload, in an interpreter started for it.

The harness starts ``python3 -m perfbench.child '<json spec>'`` for every
repetition, so each one pays interpreter start, imports, build and
teardown as a user does.  The spec names the workload, the seed, the mode
and the file the record is written to:

``reference``  golden checks and the sequential reference, nothing timed
``plain``      one repetition: set up, run ``sws`` then ``sdc``, verify
``profile``    the same with ``cProfile`` around the measured region
``probes``     isolated probes of single layers (see ``probes.py``)

Timed workloads call only ``TaskPool``, ``run_serve``, ``run_mp`` and the
command line, so they survive refactors of everything behind those.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
import sys
import time

from .spec import IMPLS, SERVE_SLO_S, SPIN_ITERATIONS, SPIN_REF_S

_now = time.monotonic  # CLOCK_MONOTONIC: comparable with the harness's stamps


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a, self.b = a, b

    def total(self) -> int:
        return self.a + self.b


def spin() -> float:
    """Seconds the calibration loop takes right now (see ``spec.py``).

    A fixed mix of what the program's hot loops do — calls, attribute and
    dict access, list growth and trimming, struct packing, byte slicing —
    so that a disturbed host slows it about as much as it slows the
    program.  It imports nothing the program might not: the child's
    ``peak_rss_mb`` is the program's.
    """
    pack, from_bytes = struct.Struct("<II").pack, int.from_bytes
    table: dict[int, _Cell] = {}
    queue: list[int] = []
    acc = 0
    start = _now()
    for i in range(SPIN_ITERATIONS):
        cell = _Cell(i, acc & 0xFF)
        table[i & 1023] = cell
        queue.append(cell.total())
        acc += from_bytes(pack(i, acc & 0xFFFF)[:2], "little")
        if len(queue) > 512:
            del queue[:256]
    return _now() - start


class Recorder:
    """Spans, the measured region, and the books of one repetition."""

    def __init__(self, profile: bool) -> None:
        self.spans: list[dict] = []
        self._open: list[str] = []
        self.prof = None
        if profile:
            # Imported here: a plain repetition should not pay for it.
            # builtins=False folds C calls into the frame that made them.
            import cProfile
            self.prof = cProfile.Profile(builtins=False)
        #: Calibration loop timings, one before the first measured region
        #: and one after each: the host's clock rate around every region.
        self.spins: list[float] = []
        self.setup_end: float | None = None
        self.regions: dict[str, float] = {}
        self.wall_s = 0.0          # as the clock on the wall saw it
        self.wall_cal_s = 0.0      # at the host's undisturbed clock rate
        #: Set-up the program pays inside the measured regions (see
        #: README.md, ``setup_s``), as measured and calibrated.
        self.extra_setup_s = self.extra_setup_cal_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.facts: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else "repetition"
        self._open.append(name)
        start = _now()
        try:
            yield
        finally:
            self.spans.append(
                {"name": name, "start": start, "end": _now(), "parent": parent}
            )
            self._open.pop()

    def measured(self, label: str, fn):
        """Run ``fn`` as part of the measured region; returns its result.

        An exception is a failed run, not a failed benchmark: it is
        recorded and ``None`` returned so the other runs still happen.
        """
        if not self.spins:
            self.setup_end = _now()
            self.spins.append(spin())
        tally = _events_tally()
        before = tally() if tally else 0
        with self.span(f"run.{label}"):
            start = _now()
            if self.prof is not None:
                self.prof.enable()
            try:
                result = fn()
            except Exception:
                import traceback
                result = None
                self.problems.append(f"{label}: {traceback.format_exc()}")
            finally:
                if self.prof is not None:
                    self.prof.disable()
                wall = _now() - start
        self.spins.append(spin())
        self.wall_s += wall
        self.wall_cal_s += self.calibrated(wall)
        self.regions[label] = wall
        if label in IMPLS:
            self.facts[f"span.run_s.{label}"] = wall
        if tally and tally() > before:
            self.add("engine.events", tally() - before)
        return result

    def calibrated(self, seconds: float) -> float:
        """``seconds`` of the last measured region at the reference rate."""
        around = (self.spins[-2] + self.spins[-1]) / 2
        return seconds * SPIN_REF_S / around

    def add(self, name: str, value: float) -> None:
        self.facts[name] = self.facts.get(name, 0) + value

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.problems.append(what)
        return ok

    def book_run(self, ok: bool, tasks_expected: int = 0, tasks_seen: int = 0) -> None:
        """One run and its tasks attempted; lost or duplicated tasks and a
        run with a failed check count as failed."""
        self.attempted += 1 + tasks_expected
        self.failed += abs(tasks_expected - tasks_seen) + (0 if ok else 1)


def _events_tally():
    """The program's process-wide event counter, if this repetition
    loaded the simulator and it still has one."""
    return getattr(sys.modules.get("repro.fabric.engine"), "events_tally", None)


# ----------------------------------------------------------------------
# Facts shared by the fabric workloads
# ----------------------------------------------------------------------

def _fabric_facts(rec: Recorder, stats_by_impl: dict) -> None:
    """Counts and simulated statistics from the public ``RunStats``."""
    efficiency = []
    for impl, st in stats_by_impl.items():
        if st is None:
            continue
        rec.add("virt_runtime_ms", st.runtime * 1e3)
        rec.add("nic.ops", st.comm.get("total", 0))
        rec.add("nic.blocking_ops", st.comm.get("blocking", 0))
        rec.add("nic.bytes", st.comm.get("bytes", 0))
        rec.add("protocol.steals_ok", st.total_steals)
        rec.add("protocol.steals_failed", st.total_failed_steals)
        rec.add("protocol.tasks_stolen", sum(w.tasks_stolen for w in st.workers))
        rec.add("protocol.releases", sum(w.releases for w in st.workers))
        rec.add("protocol.acquires", sum(w.acquires for w in st.workers))
        rec.facts[f"protocol.virt_steal_ms.{impl}"] = st.total_steal_time * 1e3
        rec.facts[f"protocol.virt_search_ms.{impl}"] = st.total_search_time * 1e3
        rec.add("worker.tasks_executed", st.total_tasks)
        rec.add("termination.virt_ms",
                sum(w.termination_time for w in st.workers) * 1e3)
        efficiency.append(st.parallel_efficiency)
    if efficiency:
        rec.facts["worker.virt_efficiency"] = sum(efficiency) / len(efficiency)
    attempts = rec.facts.get("protocol.steals_ok", 0) + rec.facts.get(
        "protocol.steals_failed", 0)
    if attempts:
        rec.facts["protocol.steal_success_ratio"] = (
            rec.facts["protocol.steals_ok"] / attempts)
    events = rec.facts.get("engine.events", 0)
    if events:
        rec.facts["engine.host_ns_per_event"] = rec.wall_s / events * 1e9
    tasks = rec.facts.get("worker.tasks_executed", 0)
    if tasks:
        rec.facts["worker.host_us_per_task"] = rec.wall_s / tasks * 1e6


def _run_pools(rec: Recorder, pools: dict) -> dict:
    return {impl: rec.measured(impl, pool.run) for impl, pool in pools.items()}


def _closed_batch(rec: Recorder, spec: dict, npes: int, qsize: int,
                  task_size: int, make_workload, expected: int) -> None:
    """Build one pool per protocol around ``make_workload(registry)``,
    run them to quiescence, and check that ``expected`` tasks ran."""
    from repro import QueueConfig, TaskPool, TaskRegistry

    pools = {}
    with rec.span("build"):
        for impl in IMPLS:
            registry = TaskRegistry()
            workload = make_workload(registry)
            pool = TaskPool(npes, registry, impl=impl, seed=spec["seed"],
                            queue_config=QueueConfig(qsize=qsize, task_size=task_size))
            pool.seed(0, [workload.seed_task()])
            pools[impl] = pool
    stats = _run_pools(rec, pools)
    with rec.span("verify"):
        for impl, st in stats.items():
            seen = st.total_tasks if st else 0
            ok = rec.check(seen == expected,
                           f"{impl}: executed {seen} of {expected} tasks")
            rec.book_run(ok, expected, seen)
        _fabric_facts(rec, stats)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def bpc_coarse(rec: Recorder, spec: dict) -> None:
    with rec.span("import"):
        from repro.workloads.bpc import BpcParams, BpcWorkload
    with rec.span("generate"):
        params = BpcParams(n_consumers=32, depth=16,
                           consumer_time=0.5e-3, producer_time=0.1e-3)
    _closed_batch(rec, spec, 32, 4096, 32,
                  lambda registry: BpcWorkload(registry, params),
                  params.total_tasks)


def _uts_tree():
    """The UTS tree of ``uts_fine`` and ``mp_uts``: 34,189 nodes, the
    shape law of the paper's T1WL at a size one repetition runs in 0.5 s."""
    from repro.workloads.uts import GeoShape, TreeType, UtsParams

    return UtsParams(tree_type=TreeType.GEO, b0=5.5, gen_mx=10,
                     shape=GeoShape.LINEAR, root_seed=19)


def uts_fine(rec: Recorder, spec: dict) -> None:
    with rec.span("import"):
        from repro.workloads.uts import UtsWorkload
    with rec.span("generate"):
        tree = _uts_tree()
    _closed_batch(rec, spec, 4, 8192, 48,
                  lambda registry: UtsWorkload(registry, tree),
                  spec["expect"]["nodes"])


def oracle_explore(rec: Recorder, spec: dict) -> None:
    with rec.span("import"):
        from repro import QueueConfig, Task, TaskOutcome, TaskPool, TaskRegistry
    ntasks = 120
    with rec.span("generate"):
        first = spec["seed"] * ntasks
        payloads = [((first + i) & 0xFFFFFFFF).to_bytes(4, "little")
                    for i in range(ntasks)]
    pools, seen_by_impl = {}, {}
    with rec.span("build"):
        for impl in IMPLS:
            executed: list[bytes] = []
            registry = TaskRegistry()

            def leaf(payload, tc, _executed=executed):
                _executed.append(payload)
                return TaskOutcome(duration=5e-6)

            fn_id = registry.register("leaf", leaf)
            # The random scheduler's event count moves +-20 % with its
            # seed, more than any bound could absorb: the schedule is part
            # of the workload, and the seed draws the payloads.
            pool = TaskPool(4, registry, impl=impl, seed=0,
                            queue_config=QueueConfig(qsize=4096, task_size=24),
                            oracle=True, scheduler="random")
            pool.seed(0, [Task(fn_id, p) for p in payloads])
            pools[impl], seen_by_impl[impl] = pool, executed
    stats = _run_pools(rec, pools)
    with rec.span("verify"):
        for impl, st in stats.items():
            executed = seen_by_impl[impl]
            ok = rec.check(sorted(executed) == sorted(payloads),
                           f"{impl}: tasks not executed exactly once")
            rec.book_run(ok, ntasks, len(executed))
            oracle = getattr(pools[impl], "oracle", None)
            rec.add("oracle.checks", getattr(oracle, "checks_passed", 0))
        _fabric_facts(rec, stats)
        events = rec.facts.get("engine.events", 0)
        if events:
            rec.facts["oracle.host_ms_per_event"] = rec.wall_s / events * 1e3


def serve_open(rec: Recorder, spec: dict) -> None:
    with rec.span("import"):
        from repro.runtime.arrivals import parse_arrival_spec, serving_checksum
        from repro.runtime.serving import run_serve
    duration_s = 3e-3
    with rec.span("generate"):
        # Open loop in simulated time: the whole trace is drawn here and
        # pre-scheduled as engine events, so no arrival is ever late.
        arrivals = parse_arrival_spec(
            f"poisson:{spec['rate']}", duration_s, spec["seed"])
        arrivals.trace()
    stats = {
        impl: rec.measured(impl, lambda impl=impl: run_serve(
            8, impl=impl, arrival=arrivals, duration_s=duration_s,
            slo_s=SERVE_SLO_S, seed=spec["seed"], task_s=2e-6, oracle=False))
        for impl in IMPLS
    }
    with rec.span("verify"):
        expected = serving_checksum(range(arrivals.emitted))
        p50, p99, slo = [], [], []
        for impl, st in stats.items():
            sv = st.serving if st else None
            done = sv.completed if sv else 0
            ok = rec.check(
                sv is not None and done == sv.emitted == arrivals.emitted
                and sv.shed == 0 and sv.checksum == expected,
                f"{impl}: completed {done} of {arrivals.emitted} arrivals, "
                f"or wrong checksum")
            rec.book_run(ok, arrivals.emitted, done)
            if sv is None:
                continue
            rec.add("serving.emitted", sv.emitted)
            rec.add("serving.completed", sv.completed)
            rec.add("serving.shed", sv.shed)
            pct = sv.latency.percentiles()   # femtosecond ticks
            p50.append(pct["p50"] / 1e9)
            p99.append(pct["p99"] / 1e9)
            slo.append(sv.slo_fraction)
        _fabric_facts(rec, stats)
        if p99:
            rec.facts["serving.virt_p50_us"] = max(p50)
            rec.facts["virt_p99_us"] = max(p99)
            rec.facts["serving.slo_attained_frac"] = min(slo)
        rec.facts["serving.gen_lateness_us"] = 0.0


def mp_uts(rec: Recorder, spec: dict) -> None:
    with rec.span("import"):
        from repro.mp import run_mp
    with rec.span("generate"):
        tree = _uts_tree()
    results = {
        impl: rec.measured(impl, lambda impl=impl: run_mp(
            "uts", impl, npes=2, tree=tree, verify=False, seed=spec["seed"]))
        for impl in IMPLS
    }
    with rec.span("verify"):
        nodes, checksum = spec["expect"]["nodes"], spec["expect"]["checksum"]
        inner = 0.0
        for impl, res in results.items():
            seen = res.total_executed if res else 0
            ok = rec.check(
                res is not None and res.created == res.completed == seen == nodes
                and res.checksum == checksum,
                f"{impl}: executed {seen} of {nodes} nodes, or wrong checksum")
            rec.book_run(ok, nodes, seen)
            if res is None:
                continue
            inner += res.wall_s
            rec.facts[f"mp.run_s.{impl}"] = res.wall_s
            rec.add("mp.steals", res.total_steals)
            rec.add("mp.tasks_stolen", sum(p.tasks_stolen for p in res.pes))
            rec.add("worker.tasks_executed", seen)
        # Heap create, fork, join, unlink: set-up the program pays per run.
        rec.facts["mp.startup_s"] = rec.extra_setup_s = rec.wall_s - inner
        rec.extra_setup_cal_s = rec.wall_cal_s * (1 - inner / rec.wall_s)
        if inner:
            rec.facts["mp.tasks_per_s"] = rec.facts["worker.tasks_executed"] / inner


#: (metric, arguments after ``python3``, patterns its output must match)
_CLI_STEPS = (
    ("cli.import_s", ["-c", "import repro, sys; print(len(sys.modules))"],
     [r"^\d+$"]),
    ("cli.demo_s", ["-m", "repro"], [r"SDC\s+6\s+5\s+1", r"SWS\s+3\s+2\s+1"]),
    ("cli.protocol_all_s", ["-m", "repro", "--protocol", "sws", "--backend", "all",
                            "--ntasks", "100"],
     [r"fabric: .*oracle clean", r"threads: .*exactly: True", r"mp: .*exactly: True"]),
    ("cli.serve_s", ["-m", "repro", "serve", "--npes", "4", "--seed", "{seed}"],
     [r"oracle clean"]),
    ("cli.mp_s", ["-m", "repro", "mp", "--workload", "uts", "--tree", "test_tiny",
                  "--npes", "2", "--verify", "--seed", "{seed}"],
     [r"verified: 85 tasks, zero lost/duplicated"]),
    ("cli.sweep_s", ["-m", "repro", "sweep", "--scenarios", "fig5,fig6",
                     "--no-cache", "--jobs", "2", "--quiet"],
     [r"2 job\(s\): 0 cached, 2 ran \(pool", r"fig5 ", r"fig6 "]),
)


def cli_e2e(rec: Recorder, spec: dict) -> None:
    import re
    import subprocess

    rec.facts["cli.rc_nonzero"] = 0
    for metric, args, patterns in _CLI_STEPS:
        argv = [sys.executable] + [a.format(seed=spec["seed"]) for a in args]
        proc = rec.measured(metric, lambda argv=argv: subprocess.run(
            argv, capture_output=True, text=True, timeout=30))
        rec.facts[metric] = rec.regions[metric]
        if metric == "cli.import_s":
            # Interpreter start and import are set-up every command pays.
            rec.extra_setup_s = rec.regions[metric]
            rec.extra_setup_cal_s = rec.calibrated(rec.regions[metric])
        rc = proc.returncode if proc else None
        out = proc.stdout if proc else ""
        missing = [p for p in patterns if not re.search(p, out, re.MULTILINE)]
        ok = rec.check(rc == 0 and not missing,
                       f"{metric}: rc {rc}, missing output {missing}")
        rec.book_run(ok)
        rec.facts["cli.rc_nonzero"] += rc != 0
        if metric == "cli.import_s" and ok:
            rec.facts["cli.modules_imported"] = int(out.strip())


WORKLOADS = {
    "bpc_coarse": bpc_coarse,
    "uts_fine": uts_fine,
    "serve_open": serve_open,
    "oracle_explore": oracle_explore,
    "mp_uts": mp_uts,
    "cli_e2e": cli_e2e,
}


# ----------------------------------------------------------------------
# Reference: golden checks and sequential references, nothing timed
# ----------------------------------------------------------------------

def reference(rec: Recorder, spec: dict) -> dict:
    """The paper's two golden facts, and the workload's expected output."""
    from repro.core.steal_half import schedule
    from repro.workloads.synthetic import measure_single_steal

    rec.check(schedule(150) == [75, 37, 19, 9, 5, 2, 1, 1, 1],
              f"golden steal-half schedule broken: {schedule(150)}")
    for impl, total, blocking in (("sws", 3, 2), ("sdc", 6, 5)):
        comms = measure_single_steal(impl, volume=8, task_size=24).comms
        rec.facts[f"protocol.comms_per_steal.{impl}"] = comms.get("total", 0)
        rec.check(
            comms.get("total") == total and comms.get("blocking") == blocking,
            f"Fig. 2: {impl} steal took {comms} communications, "
            f"expected {total} ({blocking} blocking)")
    rec.book_run(not rec.problems)
    expect: dict = {}
    if spec["workload"] == "uts_fine":
        from repro.workloads.uts import enumerate_tree
        expect["nodes"] = enumerate_tree(_uts_tree()).nodes
    elif spec["workload"] == "mp_uts":
        from repro.mp import uts_expected
        expect["nodes"], expect["checksum"] = uts_expected(_uts_tree())
    return expect


def main(argv: list[str]) -> int:
    entered = _now()
    spec = json.loads(argv[0])
    mode = spec["mode"]
    rec = Recorder(profile=mode == "profile")
    record: dict = {"workload": spec["workload"], "mode": mode, "entered": entered}
    if mode == "reference":
        record["expect"] = reference(rec, spec)
    elif mode == "probes":
        from .probes import run_probes
        record["warnings"] = run_probes(spec["workload"], rec.facts)
    else:
        WORKLOADS[spec["workload"]](rec, spec)
    if rec.prof is not None:
        from .layers import fold_profile
        rec.prof.create_stats()
        record["layers"] = fold_profile(
            rec.prof.stats, frozenset({os.path.abspath(__file__)}))
    for sp in rec.spans:
        if not sp["name"].startswith("run."):
            rec.facts[f"span.{sp['name']}_s"] = sp["end"] - sp["start"]
    record.update(
        spans=rec.spans, setup_end=rec.setup_end, spins=rec.spins,
        wall_s=rec.wall_s, wall_cal_s=rec.wall_cal_s,
        extra_setup_s=rec.extra_setup_s,
        extra_setup_cal_s=rec.extra_setup_cal_s, attempted=rec.attempted,
        failed=rec.failed, problems=rec.problems, facts=rec.facts,
    )
    record["done"] = _now()
    # A child killed half-way leaves half a file: the harness treats what
    # it cannot parse as no record.
    with open(spec["out"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
