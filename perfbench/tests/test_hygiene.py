"""No process and no shared-memory segment outlives the command."""

import os
import subprocess
import time

import pytest

from perfbench import harness


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


def test_sweep_counts_kills_and_reaps_a_daemon_left_behind(tmp_path):
    harness.become_subreaper()
    pidfile = tmp_path / "pid"
    # The session leader exits at once and leaves a sleeper behind, as a
    # resource tracker or pool worker that lost its parent would be.
    leader = subprocess.Popen(
        ["sh", "-c", f"sleep 300 & echo $! > {pidfile}; exit 0"],
        start_new_session=True)
    leader.wait(timeout=10)
    orphan = int(pidfile.read_text())
    assert _alive(orphan)
    assert harness.sweep({leader.pid}, grace_s=0.1) == 1
    assert not _alive(orphan)
    assert harness.sweep({leader.pid}, grace_s=0.0) == 0


def test_sweep_gives_helpers_a_grace_period():
    harness.become_subreaper()
    leader = subprocess.Popen(["sh", "-c", "sleep 0.3 & exit 0"],
                              start_new_session=True)
    leader.wait(timeout=10)
    assert harness.sweep({leader.pid}, grace_s=5.0) == 0   # it left by itself


@pytest.mark.skipif(not os.path.isdir(harness.SHM_DIR), reason="no /dev/shm")
def test_new_segments_are_counted_and_removed():
    before = harness.shm_snapshot()
    path = os.path.join(harness.SHM_DIR, f"perfbench_test_{os.getpid()}")
    with open(path, "w") as fh:
        fh.write("x")
    try:
        assert harness.shm_sweep(before) == 1
        assert not os.path.exists(path)
        assert harness.shm_sweep(before) == 0
    finally:
        if os.path.exists(path):
            os.unlink(path)


def test_a_child_past_its_time_is_stopped(monkeypatch):
    harness.become_subreaper()
    monkeypatch.setattr(harness, "CHILD_TIMEOUT_S", 0.5)
    run = harness.Runner("bpc_coarse", seed=0, deadline=None)
    start = time.monotonic()
    res = run.child("plain", expect={}, rate=0)
    assert res.timed_out and not res.ok
    assert time.monotonic() - start < 10
    assert run.failed == run.attempted == 1
    assert harness.sweep(set(), grace_s=0.0) == 0
