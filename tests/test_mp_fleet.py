"""The single PE loop across its regimes, and the fleet harness's teardown.

Part one is a regime matrix: the one ``_pe_loop`` runs plain and
serving, on both queue protocols, and every cell must conserve the task
set against the sequential oracle.

Part two pins the failures the fleet harness exists to prevent — a PE
that dies without reporting, a hammer owner that raises while thieves
run, a serving PE that dies before the common start — and the race it
must not lose: a report sent as its child exits.  Each must end
in an error that names a rank, promptly, and leave neither a child
process nor a shared-memory segment behind.

Part three holds the threads backend to the same rule: its queues live
on a heap of their own process, which every hammer and failed race must
close; and no real-time entry point starts a helper process at all.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.mp import driver
from repro.mp import queue as mp_queue
from repro.mp.driver import run_mp, run_mp_serve, synthetic_expected
from repro.mp.errors import MpStallError
from repro.mp.fleet import Fleet
from repro.mp.queue import hammer_mp
from repro.runtime.arrivals import parse_arrival_spec, serving_checksum
from repro.threads.protocol import hammer

from .conftest import nothing_left_behind

pytestmark = [pytest.mark.mp, pytest.mark.timeout(120)]

IMPLS = ("sws", "sdc")
NTASKS = 600

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the injected faults reach the children by fork inheritance",
)


# ----------------------------------------------------------------------
# regime matrix
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl", IMPLS)
def test_plain_regime_is_exactly_once(impl):
    result = run_mp("synthetic", impl, 3, ntasks=NTASKS, verify=True)
    assert result.conserved
    assert (result.total_executed, result.checksum) == synthetic_expected(NTASKS)


@pytest.mark.parametrize("impl", IMPLS)
def test_serve_regime_completes_the_trace(impl):
    n = parse_arrival_spec("fixed:200000", 2e-3, 0).emitted
    result = run_mp_serve("fixed:200000", 2e-3, impl=impl, npes=3)
    assert result.created == result.completed == n
    assert result.total_tasks == n
    assert result.checksum == serving_checksum(range(n))
    assert result.serving.latency.count == n


@pytest.mark.parametrize("impl", IMPLS)
def test_serve_regime_runs_no_arrival_before_it_is_due(impl):
    """The PEs replay the trace at its times: no record executes before
    its due stamp, so no latency is negative, and every arrival books
    exactly one completion.  Four PEs, more than a CI runner's cores,
    all pass the common start."""
    s = run_mp_serve("fixed:200000", 2e-3, impl=impl, npes=4).serving
    assert s.latency.min_value >= 0
    assert s.completed == s.injected == s.emitted == s.latency.count


# ----------------------------------------------------------------------
# teardown regressions
# ----------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("impl", IMPLS)
def test_pe_dying_silently_is_named_at_once(monkeypatch, impl):
    build = driver.WORKLOADS["synthetic"]

    def dying_workload(ntasks, tree):
        wl = build(ntasks, tree)
        count = [0]

        def dying(node):
            count[0] += 1
            if count[0] == 50:
                os._exit(9)
            return wl.step(node)

        return wl._replace(step=dying)

    monkeypatch.setitem(driver.WORKLOADS, "synthetic", dying_workload)
    with nothing_left_behind():
        t0 = time.monotonic()
        with pytest.raises(MpStallError) as exc:
            run_mp("synthetic", impl, 2, ntasks=NTASKS, join_timeout=60)
        assert time.monotonic() - t0 < 10
    assert exc.value.rank is not None
    assert "exitcode 9" in str(exc.value) and "pid" in str(exc.value)


@needs_fork
def test_hammer_owner_raising_takes_its_thieves_down(monkeypatch):
    def drain(self):
        raise ZeroDivisionError("owner fell over before the stop word")

    monkeypatch.setattr(mp_queue.MpSwsQueue, "drain", drain)
    with nothing_left_behind():
        with pytest.raises(ZeroDivisionError):
            hammer_mp(list(range(200)), nthieves=2)


@needs_fork
def test_hammer_thief_dying_is_named(monkeypatch):
    # The thief dies building its view, before its first read of the
    # owner's stop flag: a death in ``steal`` is skipped by a thief that
    # starts after the owner's whole race has already stored it.
    monkeypatch.setattr(mp_queue.SwsQueueLayout, "thief",
                        lambda self, heap: os._exit(7))
    with nothing_left_behind():
        with pytest.raises(MpStallError) as exc:
            hammer_mp(list(range(200)), nthieves=2, join_timeout=60)
    assert exc.value.rank in (0, 1)
    assert "exitcode 7" in str(exc.value)


@needs_fork
def test_serve_feeder_names_the_dead_rank(monkeypatch):
    """Rank 1 dies before it is ready, so rank 0 waits for a common
    start that never comes: the parent still names rank 1 at once."""
    bind = driver._bind_serve

    def rank_one_dies(rank, *args):
        if rank == 1:
            os._exit(7)
        return bind(rank, *args)

    monkeypatch.setattr(driver, "_bind_serve", rank_one_dies)
    with nothing_left_behind():
        t0 = time.monotonic()
        with pytest.raises(MpStallError) as exc:
            run_mp_serve("fixed:200000", 2e-3, npes=2, join_timeout=60)
        assert time.monotonic() - t0 < 10
    assert exc.value.rank == 1
    assert "exitcode 7" in str(exc.value)


def _report_and_exit(rank, heap):
    return rank


def test_a_report_sent_as_its_child_exits_is_never_lost():
    """Each child sends its report down its pipe and exits at once.  The
    parent checks liveness before it reads the pipes, so a report sent
    before an exit it observed is always found: no fleet of 200 may call
    a clean child "died without reporting"."""
    with nothing_left_behind():
        for _ in range(200):
            with Fleet("report race", mp_queue.LAYOUTS["sws"], 1, 1) as fleet:
                for rank in range(2):
                    fleet.spawn(rank, _report_and_exit)
                fleet.collect(30)
            assert sorted(fleet.reports) == [(0, 0), (1, 1)]


# ----------------------------------------------------------------------
# the threads backend allocates a heap too: it must leave nothing behind
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl", ("sws", "sdc", "ff-mult"))
def test_thread_hammer_leaves_no_segment(impl):
    with nothing_left_behind():
        loot, kept = hammer(list(range(300)), nthieves=3, impl=impl)
    assert {t for lane in loot for t in lane} | set(kept) == set(range(300))


def test_thread_race_whose_owner_raises_leaves_no_segment(monkeypatch):
    def drain(self):
        raise ZeroDivisionError("owner fell over mid-race")

    monkeypatch.setattr(mp_queue.MpSwsQueue, "drain", drain)
    with nothing_left_behind():
        with pytest.raises(ZeroDivisionError):
            hammer(list(range(200)), nthieves=2)


def test_only_the_fleet_starts_processes():
    """PR 13's claim, true of the whole package: the only ``.Process(``
    call in ``src/`` is the mp fleet's."""
    from pathlib import Path

    import repro

    root = Path(repro.__file__).resolve().parent
    callers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if ".Process(" in path.read_text()
    )
    assert callers == ["mp/fleet.py"]


#: Every real-time entry point once, then what the process holds.
_EVERY_REALTIME_ENTRY = """
import json, os, sys
from multiprocessing import resource_tracker
from repro.mp.driver import run_mp
from repro.mp.queue import hammer_mp
from repro.threads.protocol import hammer

before = sorted(os.listdir("/dev/shm"))
assert run_mp("uts", "sws", npes=2, tree="test_tiny", verify=True).conserved
hammer_mp(list(range(64)))
hammer(list(range(64)))
print(json.dumps({
    "tracker": resource_tracker._resource_tracker._pid,
    "shared_memory": "multiprocessing.shared_memory" in sys.modules,
    "shm": [before, sorted(os.listdir("/dev/shm"))],
}))
"""


@needs_fork
@pytest.mark.timeout(60)
def test_no_realtime_entry_point_starts_a_helper_process():
    """The heap is an anonymous mapping the kernel frees with its last
    process: no named segment, so no resource-tracker interpreter."""
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_REALTIME_ENTRY],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=50)
    assert proc.returncode == 0, proc.stderr
    held = json.loads(proc.stdout.splitlines()[-1])
    assert held["tracker"] is None
    assert not held["shared_memory"]
    before, after = held["shm"]
    assert after == before


# ----------------------------------------------------------------------
# abnormal exits of the supervisor itself: SIGKILL and Ctrl-C
# ----------------------------------------------------------------------

#: A supervisor whose PEs run ``synthetic`` tasks of 10 ms each: far
#: longer than the tests below wait once they have stopped it.
_SLOW_SUPERVISOR = """
import time
import repro.mp.driver as d

build = d.WORKLOADS["synthetic"]

def slow(ntasks, tree):
    wl = build(ntasks, tree)
    def step_slowly(node):
        time.sleep(0.01)
        return wl.step(node)
    return wl._replace(step=step_slowly)

d.WORKLOADS["synthetic"] = slow
d.run_mp("synthetic", "sws", 2, ntasks=20000)
"""


def _children_of(pid: int) -> set[int]:
    out = set()
    for path in os.listdir("/proc"):
        if path.isdigit():
            try:
                with open(f"/proc/{path}/stat", "rb") as f:
                    stat = f.read()
            except OSError:
                continue
            if int(stat[stat.rindex(b")") + 2:].split()[1]) == pid:
                out.add(int(path))
    return out


def _reap_all(deadline_s: float) -> None:
    """Wait for (and reap) every child this process has, up to a
    deadline: what a subreaper inherited included."""
    from .conftest import child_pids

    deadline = time.monotonic() + deadline_s
    while child_pids() and time.monotonic() < deadline:
        for pid in child_pids():
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)


@needs_fork
@pytest.mark.timeout(60)
def test_a_sigkilled_supervisor_leaves_nothing_behind():
    """The supervisor runs in its own session and this process is the
    subreaper, so its orphaned PEs become this process's children: none
    may outlive it, and ``/dev/shm`` must be as found."""
    import ctypes
    import signal
    import subprocess
    import sys

    pr_set_child_subreaper = 36
    prctl = ctypes.CDLL(None, use_errno=True).prctl
    assert prctl(pr_set_child_subreaper, 1, 0, 0, 0) == 0
    try:
        with nothing_left_behind():
            proc = subprocess.Popen(
                [sys.executable, "-c", _SLOW_SUPERVISOR],
                start_new_session=True,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
            deadline = time.monotonic() + 30
            while len(_children_of(proc.pid)) < 2:   # 2 PEs
                assert proc.poll() is None, "the supervisor exited early"
                assert time.monotonic() < deadline, "no PE ever started"
                time.sleep(0.05)
            time.sleep(0.2)                          # the PEs are running
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            _reap_all(10.0)
    finally:
        # Whatever the verdict, take down the PEs a failure left running.
        from .conftest import child_pids

        for pid in child_pids():
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass                             # exited while we looked
        _reap_all(10.0)
        prctl(pr_set_child_subreaper, 0, 0, 0, 0)


@needs_fork
@pytest.mark.timeout(60)
def test_a_keyboard_interrupt_mid_run_leaves_nothing_behind(monkeypatch):
    """Ctrl-C lands in ``run_mp`` while its PEs run: the interrupt
    propagates, and the fleet's teardown still kills and reaps every PE
    and closes the heap."""
    import _thread
    import threading

    from .conftest import child_pids

    build = driver.WORKLOADS["synthetic"]

    def slow(ntasks, tree):
        wl = build(ntasks, tree)

        def step_slowly(node):
            time.sleep(0.01)
            return wl.step(node)
        return wl._replace(step=step_slowly)

    monkeypatch.setitem(driver.WORKLOADS, "synthetic", slow)

    def interrupt_once_running():
        deadline = time.monotonic() + 30
        while len(child_pids()) < 2 and time.monotonic() < deadline:
            time.sleep(0.02)
        time.sleep(0.2)
        _thread.interrupt_main()

    with nothing_left_behind():
        threading.Thread(target=interrupt_once_running, daemon=True).start()
        with pytest.raises(KeyboardInterrupt):
            run_mp("synthetic", "sws", 2, ntasks=20000)
