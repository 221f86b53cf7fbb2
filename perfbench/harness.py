"""The parent side: start repetitions, keep them contained, fold their records.

Every repetition is a fresh interpreter in a session of its own.  When it
exits — or its time is up — the session is swept: whatever is still alive
in it after a short grace is a leak, is counted as a failed operation, and
is killed and reaped.  ``/dev/shm`` is compared before and after in the
same way.  The harness never imports the program; a broken program breaks
a child, not the bookkeeping.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

from .spec import (
    END_TO_END, FABRIC, PER_LAYER, SERVE_RATES, SERVE_SLO_S, SPIN_REF_S,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SHM_DIR = "/dev/shm"

#: Repetitions an untraced measurement makes even when they overrun
#: ``--seconds``: a median needs them.
MIN_REPS = 3
#: Hard limit for one child.  The longest, one repetition of ``cli_e2e``,
#: takes about 2 s on the reference host.
CHILD_TIMEOUT_S = 60.0
#: How long a finished repetition's helpers (multiprocessing's resource
#: tracker exits only once its pipe closes) may take to go away.
GRACE_S = 2.0

_now = time.monotonic


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (not: the program is slow)."""


# ----------------------------------------------------------------------
# Process and shared-memory hygiene
# ----------------------------------------------------------------------

def become_subreaper() -> None:
    """Have orphaned descendants re-parented to this process, so that it
    can reap them itself instead of relying on the container's init."""
    pr_set_child_subreaper = 36
    try:
        ctypes.CDLL(None, use_errno=True).prctl(pr_set_child_subreaper, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, the /proc sweep still sees them


def _proc_table() -> dict[int, tuple[int, int]]:
    """pid -> (parent pid, session id) of every process in ``/proc``."""
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue  # exited between listdir and open
        table[int(entry)] = (int(fields[1]), int(fields[3]))
    return table


def _reap_orphans() -> None:
    """Collect every child of this process that has already exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _alive_in(sessions: set[int]) -> list[int]:
    _reap_orphans()
    me = os.getpid()
    return [pid for pid, (ppid, sid) in _proc_table().items()
            if sid in sessions or (ppid == me and pid != me)]


def _kill(pids: list[int], sessions: set[int]) -> None:
    for sid in sessions:
        try:
            os.killpg(sid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
    for pid in pids:  # a process may have left the group but not the session
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def sweep(sessions: set[int], grace_s: float = GRACE_S) -> int:
    """Wait for the sessions to empty; kill and reap what stays.

    Returns how many processes had to be killed: the leak count.
    """
    deadline = _now() + grace_s
    while True:
        alive = _alive_in(sessions)
        if not alive:
            return 0
        if _now() >= deadline:
            break
        time.sleep(0.005)
    leaked = len(alive)
    deadline = _now() + 10.0
    while alive and _now() < deadline:
        _kill(alive, sessions)
        time.sleep(0.01)
        alive = _alive_in(sessions)
    if alive:
        raise BenchmarkError(f"could not stop processes {alive}")
    return leaked


def shm_snapshot() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def shm_sweep(before: set[str]) -> int:
    """Remove shared-memory segments that appeared since ``before`` and
    belong to this user; returns how many there were."""
    leaked = 0
    for name in shm_snapshot() - before:
        path = os.path.join(SHM_DIR, name)
        try:
            if os.stat(path).st_uid != os.getuid():
                continue
            os.unlink(path)
        except OSError:
            continue
        leaked += 1
    return leaked


# ----------------------------------------------------------------------
# One child
# ----------------------------------------------------------------------

class Child:
    """What one child interpreter left behind."""

    def __init__(self) -> None:
        self.record: dict | None = None
        self.returncode: int | None = None
        self.timed_out = False
        self.spawned = self.reaped = 0.0
        self.cpu_s = self.peak_rss_mb = 0.0
        self.procs_leaked = self.shm_leaked = 0

    @property
    def ok(self) -> bool:
        return (self.record is not None and self.returncode == 0
                and not self.timed_out)


class Runner:
    """Starts children for one measurement and keeps the books."""

    def __init__(self, workload: str, seed: int, deadline: float | None) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.children: list[Child] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.warnings: list[str] = []
        os.makedirs(OUT_DIR, exist_ok=True)
        self.log_path = os.path.join(OUT_DIR, f"child-{workload}.log")
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONDONTWRITEBYTECODE="1",   # write nothing outside perfbench/out
            TMPDIR=OUT_DIR,
        )

    def child(self, mode: str, **spec) -> Child:
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = min(timeout, self.deadline - _now())
            if timeout <= 0:
                raise BenchmarkError("out of time before the measurement ended")
        out = os.path.join(OUT_DIR, f"record-{self.workload}-{os.getpid()}.json")
        spec.update(workload=self.workload, seed=self.seed, mode=mode, out=out)
        argv = [sys.executable, "-m", "perfbench.child", json.dumps(spec)]
        res = Child()
        shm_before = shm_snapshot()
        with open(self.log_path, "ab") as log:
            res.spawned = _now()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, start_new_session=True)
        sessions = {proc.pid}

        def on_timeout() -> None:
            res.timed_out = True
            _kill([proc.pid], sessions)

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            res.reaped = _now()
            # Popen did not see the exit; tell it, so it neither waits
            # again nor warns about a child it believes is still running.
            proc.returncode = res.returncode = os.waitstatus_to_exitcode(status)
            res.cpu_s = usage.ru_utime + usage.ru_stime
            res.peak_rss_mb = usage.ru_maxrss / 1024.0
        finally:
            timer.cancel()
            if proc.returncode is None:   # interrupted while waiting
                _kill([proc.pid], sessions)
            res.procs_leaked = sweep(sessions)
            res.shm_leaked = shm_sweep(shm_before)
        try:
            with open(out) as fh:
                res.record = json.load(fh)
            os.unlink(out)
        except (OSError, ValueError):
            res.record = None
        self._book(mode, res)
        return res

    def _book(self, mode: str, res: Child) -> None:
        self.children.append(res)
        rec = res.record
        if res.ok:
            self.attempted += rec["attempted"]
            self.failed += rec["failed"]
            self.problems += [f"{mode}: {p}" for p in rec["problems"]]
            self.warnings += rec.get("warnings", [])
            if rec["problems"] and not rec["failed"]:
                self.failed += 1   # e.g. an exception that lost no task
        else:
            self.attempted += 1
            self.failed += 1
            why = "timed out" if res.timed_out else f"exit code {res.returncode}"
            self.problems.append(
                f"{mode}: child {why}, see {os.path.relpath(self.log_path, ROOT)}")
        leaks = res.procs_leaked + res.shm_leaked
        if leaks:
            self.failed += leaks
            self.problems.append(
                f"{mode}: left {res.procs_leaked} process(es) and "
                f"{res.shm_leaked} shared-memory segment(s) behind")


# ----------------------------------------------------------------------
# One measurement = what the driver's command line asks for
# ----------------------------------------------------------------------

def _summary(values: list[float], raw: list[float], unit: str) -> dict:
    """The reported value is the median over repetitions; the rest is
    printed beside it (``raw_median``: before calibration)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "count": len(values), "raw_median": statistics.median(raw)}


def _spans(res: Child) -> list[dict]:
    """The child's spans under a root the parent can see the ends of."""
    rec = res.record
    root = [
        {"name": "repetition", "start": res.spawned, "end": res.reaped, "parent": None},
        {"name": "spawn", "start": res.spawned, "end": rec["entered"],
         "parent": "repetition"},
        {"name": "teardown", "start": rec["done"], "end": res.reaped,
         "parent": "repetition"},
    ]
    return root + rec["spans"]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float | None = None) -> dict:
    """Run one workload; returns metrics, books and raw samples."""
    if workload == "mp_uts" and (os.cpu_count() or 1) < 2:
        raise BenchmarkError("mp_uts runs 2 PE processes and needs 2 cores")
    run = Runner(workload, seed, deadline)
    started = _now()
    ref = run.child("reference")
    if not ref.ok:
        raise BenchmarkError(f"reference run failed: {run.problems}")
    expect = ref.record["expect"]
    rate = SERVE_RATES["r80"]
    result: dict = {"workload": workload, "seed": seed, "trace": trace}

    if not trace:
        samples: dict[str, list[float]] = {m.name: [] for m in END_TO_END}
        raw: dict[str, list[float]] = {m.name: [] for m in END_TO_END}
        longest = 0.0
        while True:
            rep = run.child("plain", expect=expect, rate=rate)
            longest = max(longest, rep.reaped - rep.spawned)
            if rep.ok:
                rec = rep.record
                # Host times at the reference clock rate: each interval is
                # scaled by the calibration loop timed right beside it.
                spins = rec["spins"]
                first = SPIN_REF_S / spins[0]
                mean = SPIN_REF_S / statistics.mean(spins)
                setup = rec["setup_end"] - rep.spawned
                cpu = rep.cpu_s - sum(spins)
                raw["setup_s"].append(setup + rec["extra_setup_s"])
                raw["wall_s"].append(rec["wall_s"])
                raw["cpu_s"].append(cpu)
                samples["setup_s"].append(setup * first + rec["extra_setup_cal_s"])
                samples["wall_s"].append(rec["wall_cal_s"])
                samples["cpu_s"].append(cpu * mean)
                samples["peak_rss_mb"].append(rep.peak_rss_mb)
            done = len(run.children) - 1
            if done >= MIN_REPS and _now() - started + longest > seconds:
                break
        if not samples["wall_s"]:
            raise BenchmarkError(f"no repetition succeeded: {run.problems}")
        raw["peak_rss_mb"] = samples["peak_rss_mb"]
        result["end_to_end"] = {
            m.name: _summary(samples[m.name], raw[m.name], m.unit)
            for m in END_TO_END}
        result["samples"] = {"calibrated": samples, "raw": raw}
    else:
        facts, trace_doc = _traced(run, expect, rate, dict(ref.record["facts"]))
        facts["mp.procs_leaked"] = sum(c.procs_leaked for c in run.children)
        facts["mp.shm_leaked"] = sum(c.shm_leaked for c in run.children)
        facts["failed_frac"] = run.failed / run.attempted
        units = {m.name: m.unit for m in PER_LAYER}
        result["per_layer"] = {
            name: {"value": value, "unit": units[name]}
            for name, value in facts.items() if name in units}
        trace_doc.update(workload=workload, seed=seed, problems=run.problems,
                         warnings=run.warnings)
        with open(os.path.join(OUT_DIR, f"trace-{workload}.json"), "w") as fh:
            json.dump(trace_doc, fh, indent=1)

    result.update(attempted=run.attempted, failed=run.failed,
                  problems=run.problems, warnings=run.warnings,
                  leaked=sum(c.procs_leaked + c.shm_leaked for c in run.children),
                  elapsed_s=_now() - started)
    return result


def _traced(run: Runner, expect: dict, rate: int, facts: dict) -> tuple[dict, dict]:
    """The traced repetition: an untraced one for the baseline, spans and
    counts; a profiled one for self time by layer; the probes."""
    plain = run.child("plain", expect=expect, rate=rate)
    if not plain.ok:
        raise BenchmarkError(f"untraced repetition failed: {run.problems}")
    facts.update(plain.record["facts"])
    facts["span.teardown_s"] = plain.reaped - plain.record["done"]
    doc = {"untraced": {"spans": _spans(plain), "wall_s": plain.record["wall_s"]}}

    if run.workload in FABRIC:
        prof = run.child("profile", expect=expect, rate=rate)
        if prof.ok:
            for layer, cell in prof.record["layers"].items():
                facts[f"{layer}.self_s"] = cell["self_s"]
                facts[f"{layer}.calls"] = cell["calls"]
            facts["trace.overhead_ratio"] = (
                prof.record["wall_cal_s"] / plain.record["wall_cal_s"])
            doc["profiled"] = {"spans": _spans(prof), "wall_s": prof.record["wall_s"],
                               "layers": prof.record["layers"]}

    if run.workload == "serve_open":
        p99 = {"r80": facts.get("virt_p99_us")}
        for key in ("r50", "r95"):
            other = run.child("plain", expect=expect, rate=SERVE_RATES[key])
            p99[key] = other.record["facts"].get("virt_p99_us") if other.ok else None
        meeting = [SERVE_RATES[k] for k, v in p99.items()
                   if v is not None and v <= SERVE_SLO_S * 1e6]
        facts["serving.max_rate_meeting_slo"] = max(meeting, default=0)
        for key, value in p99.items():
            if value is not None:
                facts[f"serving.virt_p99_us.{key}"] = value

    probes = run.child("probes")
    if probes.ok:
        facts.update(probes.record["facts"])
    doc["facts"] = facts
    return facts, doc


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------

def fingerprint() -> dict:
    """Where the numbers were taken; ``noisy`` when the host was busy."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    load = os.getloadavg()
    return {
        "nproc": os.cpu_count(), "cpu_model": model,
        "python": platform.python_version(), "commit": commit,
        "loadavg_start": load, "noisy": load[0] > 0.5,
    }
