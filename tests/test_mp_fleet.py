"""The single PE loop across its regimes, and the fleet harness's teardown.

Part one is a regime matrix: the one ``_pe_loop`` runs plain and
serving, on both queue protocols, and every cell must conserve the task
set against the sequential oracle.

Part two pins three failures the fleet harness exists to prevent — a PE
that dies without reporting, a hammer owner that raises while thieves
run, a serving feeder posting to an inbox nobody drains.  Each must end
in an error that names a rank, promptly, and leave neither a child
process nor a shared-memory segment behind.

Part three holds the threads backend to the same rule: its queues live
on a heap of their own process, which every hammer and failed race must
unlink.
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
    result = run_mp_serve("fixed:200000", 2e-3, impl=impl, npes=3,
                          pace_s=1e-4, nbatches=8)
    assert result.created == result.completed == n
    assert sum(p.executed for p in result.pes) == n
    assert result.checksum == serving_checksum(range(n))
    assert result.serving.latency.count == n


# ----------------------------------------------------------------------
# teardown regressions
# ----------------------------------------------------------------------

@needs_fork
@pytest.mark.parametrize("impl", IMPLS)
def test_pe_dying_silently_is_named_at_once(monkeypatch, impl):
    bind = driver._bind_workload

    def dying_workload(kind, arg):
        seed_tasks, execute, fingerprint = bind(kind, arg)
        count = [0]

        def dying(payload):
            count[0] += 1
            if count[0] == 50:
                os._exit(9)
            return execute(payload)

        return seed_tasks, dying, fingerprint

    monkeypatch.setattr(driver, "_bind_workload", dying_workload)
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
    monkeypatch.setattr(mp_queue.MpSwsThief, "steal",
                        lambda self: os._exit(7))
    with nothing_left_behind():
        with pytest.raises(MpStallError) as exc:
            hammer_mp(list(range(200)), nthieves=2, join_timeout=60)
    assert exc.value.rank in (0, 1)
    assert "exitcode 7" in str(exc.value)


@needs_fork
def test_serve_feeder_names_the_dead_rank(monkeypatch):
    bind = driver._bind_serve

    def rank_one_dies(rank, *args):
        if rank == 1:
            os._exit(7)
        return bind(rank, *args)

    monkeypatch.setattr(driver, "_bind_serve", rank_one_dies)
    with nothing_left_behind():
        t0 = time.monotonic()
        with pytest.raises(MpStallError) as exc:
            # 2 ranks x 40 records per batch into 48-record inboxes: the
            # second batch cannot fit until the first was drained.
            run_mp_serve("fixed:200000", 2e-3, npes=2, inbox_cap=48,
                         nbatches=5, join_timeout=60)
        assert time.monotonic() - t0 < 10
    assert exc.value.rank == 1
    assert "exitcode 7" in str(exc.value)


def test_serve_feeder_gives_up_on_an_inbox_that_cannot_drain():
    with nothing_left_behind():
        with pytest.raises(MpStallError) as exc:
            # 50 records per rank per batch never fit a 16-record inbox.
            run_mp_serve("fixed:200000", 2e-3, npes=2, inbox_cap=16,
                         nbatches=4, join_timeout=1.0)
    assert exc.value.rank == 0


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


# ----------------------------------------------------------------------
# abnormal exits of the supervisor itself: SIGKILL and Ctrl-C
# ----------------------------------------------------------------------

#: A supervisor whose PEs run ``synthetic`` tasks of 10 ms each: far
#: longer than the tests below wait once they have stopped it.
_SLOW_SUPERVISOR = """
import time
import repro.mp.driver as d

bind = d._bind_workload

def slow(*wl):
    seeds, execute, fingerprint = bind(*wl)
    def execute_slowly(payload):
        time.sleep(0.01)
        return execute(payload)
    return seeds, execute_slowly, fingerprint

d._bind_workload = slow
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
    subreaper, so its orphaned PEs (and its resource tracker) become
    this process's children: none may outlive it, and the segment they
    mapped must go."""
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
            while len(_children_of(proc.pid)) < 3:   # 2 PEs + the tracker
                assert proc.poll() is None, "the supervisor exited early"
                assert time.monotonic() < deadline, "no PE ever started"
                time.sleep(0.05)
            time.sleep(0.2)                          # the PEs are running
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait()
            _reap_all(10.0)
    finally:
        # Whatever the verdict, take down the PEs a failure left running;
        # the supervisor's resource tracker then unlinks its segment.
        from .conftest import child_pids

        for pid in child_pids():
            try:
                with open(f"/proc/{pid}/cmdline", "rb") as f:
                    if b"resource_tracker" not in f.read():
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
    and unlinks the segment."""
    import _thread
    import threading

    from .conftest import child_pids

    bind = driver._bind_workload

    def slow(*wl):
        seeds, execute, fingerprint = bind(*wl)

        def execute_slowly(payload):
            time.sleep(0.01)
            return execute(payload)
        return seeds, execute_slowly, fingerprint

    monkeypatch.setattr(driver, "_bind_workload", slow)

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
