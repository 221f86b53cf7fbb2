"""The single PE loop across its regimes, and the fleet harness's teardown.

Part one is a regime matrix: the one ``_pe_loop`` runs plain, crash
(with and without respawn) and serving, on both queue protocols, and
every cell must conserve the task set against the sequential oracle.

Part two pins three failures the fleet harness exists to prevent — a PE
that dies without reporting, a hammer owner that raises while thieves
run, a serving feeder posting to an inbox nobody drains.  Each must end
in an error that names a rank, promptly, and leave neither a child
process nor a shared-memory segment behind.

Part three holds the threads backend to the same rule: its queues live
on a heap of their own process, which every hammer, serving run and
failed race must unlink.
"""

from __future__ import annotations

import glob
import multiprocessing
import os
import time

import pytest

from repro.mp import driver
from repro.mp import queue as mp_queue
from repro.mp.driver import run_mp, run_mp_serve, synthetic_expected
from repro.mp.errors import MpStallError
from repro.mp.faults import CrashKill, CrashPlan
from repro.mp.queue import hammer_mp
from repro.runtime.arrivals import parse_arrival_spec, serving_checksum
from repro.threads.protocol import hammer
from repro.threads.serving import run_serve_threads

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
@pytest.mark.parametrize("respawn", [False, True])
def test_crash_regime_survives_one_kill(impl, respawn):
    result = run_mp(
        "synthetic", impl, 3, ntasks=NTASKS,
        crash=CrashPlan(kills=(CrashKill(1, 5),), respawn=respawn),
    )
    assert result.conserved, result.summary()
    assert result.crashed_ranks == [1]
    assert result.respawned_ranks == ([1] if respawn else [])
    assert (result.executed_unique, result.unique_checksum) \
        == synthetic_expected(NTASKS)


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

def _segments() -> set[str]:
    return set(glob.glob("/dev/shm/psm_*")) | set(glob.glob("/dev/shm/wnsm_*"))


class _NothingLeftBehind:
    """Context: on exit no child process lives and /dev/shm is as found."""

    def __enter__(self):
        self.before = _segments()
        return self

    def __exit__(self, *exc):
        assert multiprocessing.active_children() == []
        assert _segments() == self.before
        return False


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
    with _NothingLeftBehind():
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
    with _NothingLeftBehind():
        with pytest.raises(ZeroDivisionError):
            hammer_mp(list(range(200)), nthieves=2)


@needs_fork
def test_hammer_thief_dying_is_named(monkeypatch):
    monkeypatch.setattr(mp_queue.MpSwsThief, "steal",
                        lambda self: os._exit(7))
    with _NothingLeftBehind():
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
    with _NothingLeftBehind():
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
    with _NothingLeftBehind():
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
    with _NothingLeftBehind():
        loot, kept = hammer(list(range(300)), nthieves=3, impl=impl)
    assert {t for lane in loot for t in lane} | set(kept) == set(range(300))


def test_thread_serving_leaves_no_segment():
    with _NothingLeftBehind():
        result = run_serve_threads("fixed:200000", 1e-3, nthieves=2)
    assert result.serving.completed == result.serving.emitted


def test_thread_race_whose_owner_raises_leaves_no_segment(monkeypatch):
    def drain(self):
        raise ZeroDivisionError("owner fell over mid-race")

    monkeypatch.setattr(mp_queue.MpSwsQueue, "drain", drain)
    with _NothingLeftBehind():
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
