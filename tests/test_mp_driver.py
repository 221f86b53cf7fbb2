"""End-to-end runs on the multiprocess substrate.

The acceptance bar for the backend: synthetic and UTS workloads run to
completion across ≥ 4 real OS processes with zero lost or duplicated
tasks.  ``verify=True`` checks both the task *count* and an
order-independent execution checksum against a sequential oracle, so a
double-executed or dropped task cannot hide behind a matching total.
"""

from __future__ import annotations

import pytest

from repro.mp.driver import (
    LAYOUTS,
    MpRunResult,
    _bind_plain,
    _pe_loop,
    run_mp,
    synthetic_expected,
    uts_expected,
)
from repro.mp.fleet import Fleet
from repro.runtime.stats import RunStats, WorkerStats
from repro.workloads.uts import get_tree

from .test_mp_owner_path import BENCH_SHAPE

pytestmark = [pytest.mark.mp, pytest.mark.timeout(180)]


def test_synthetic_sws_four_processes_conserves():
    result = run_mp("synthetic", "sws", 4, ntasks=1200, verify=True)
    assert result.conserved
    assert result.total_executed == 1200
    assert result.created == result.completed == 1200
    n, chk = synthetic_expected(1200)
    assert (result.total_executed, result.checksum) == (n, chk)
    # Four real processes participated (stats row per PE).
    assert len(result.pes) == 4


def test_synthetic_sdc_four_processes_conserves():
    result = run_mp("synthetic", "sdc", 4, ntasks=1000, verify=True)
    assert result.conserved
    assert result.total_executed == 1000


def test_uts_sws_four_processes_conserves():
    result = run_mp("uts", "sws", 4, tree="test_tiny", verify=True)
    assert result.conserved
    n, chk = uts_expected(get_tree("test_tiny"))
    assert result.total_executed == n
    assert result.checksum == chk


def test_uts_sdc_four_processes_conserves():
    result = run_mp("uts", "sdc", 4, tree="test_tiny", verify=True)
    assert result.conserved


def test_steal_volumes_follow_steal_half():
    """Observed claim volumes are steal-half values: for a shared block
    of B tasks the volumes come from schedule(B), so no single claim may
    exceed half the largest allotment ever published."""
    result = run_mp("synthetic", "sws", 4, ntasks=1500, verify=True)
    assert result.conserved
    hist = result.steal_volume_histogram()
    assert all(v >= 1 for v in hist)
    assert sum(v * n for v, n in hist.items()) <= 1500
    assert max(hist, default=0) <= 1500 // 2 + 1

    stolen = sum(w.tasks_stolen for w in result.workers)
    assert stolen == sum(v * n for v, n in hist.items())
    assert result.total_steals == sum(hist.values())


def test_damping_toggle_controls_probes():
    """With damping off, nobody probes.  (The tracker's own counters are
    held in ``test_config_damping.py``.)"""
    quiet = run_mp("synthetic", "sws", 4, ntasks=600, damping=False,
                   verify=True)
    assert quiet.conserved
    assert all(w.probes == 0 for w in quiet.workers)

    damped = run_mp("synthetic", "sws", 4, ntasks=600, damping=True,
                    verify=True)
    assert damped.conserved


def test_the_record_is_the_fabric_record():
    """A run books itself in ``RunStats`` with one ``WorkerStats`` row per
    PE, and its JSON round-trips as any fabric record does."""
    result = run_mp("synthetic", "sws", 4, ntasks=400, verify=True)
    assert isinstance(result, RunStats) and result.conserved
    assert [w.rank for w in result.workers] == [0, 1, 2, 3]
    assert all(type(w) is WorkerStats for w in result.workers)
    assert result.npes == 4 and result.runtime == result.wall_s > 0
    assert result.pes is result.workers
    assert result.total_executed == result.total_tasks == 400
    assert result.expected == synthetic_expected(400)
    again = RunStats.from_json(result.to_json())
    assert again.workers == result.workers
    assert again.summary() == result.summary()


def test_the_mp_books_survive_json():
    """``MpRunResult``'s own fields ride in its JSON: read back, the
    record is equal, and a conserved run still reads conserved."""
    result = run_mp("synthetic", "sws", 2, ntasks=200, verify=True)
    again = MpRunResult.from_json(result.to_json())
    assert type(again) is MpRunResult and again == result
    assert again.expected == synthetic_expected(200) and again.conserved


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_mp("synthetic", "nope", 4)
    with pytest.raises(ValueError):
        run_mp("nope", "sws", 4)
    with pytest.raises(ValueError):
        run_mp("synthetic", "sws", 0)


# ----------------------------------------------------------------------
# the owner path's shared-portion reads, and the checksum they feed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_owner_reads_the_shared_portion_once_per_segment(impl, monkeypatch):
    """One PE over perfbench's tree, run in this process: the share gate
    is read once per compute segment, not once per task."""
    owner_class = LAYOUTS[impl].owner_class
    has_work = owner_class.has_work
    calls = [0]

    def counted(self):
        calls[0] += 1
        return has_work(self)

    monkeypatch.setattr(owner_class, "has_work", counted)
    with Fleet("one queue", LAYOUTS[impl], 1, 1 << 14, 4,
               ctl=("created", "completed")) as fleet:
        fleet.heap.ref(fleet.ctl["created"]).store(1)
        stats, checksum, _ = _pe_loop(0, fleet.heap, fleet.layouts,
                                      fleet.ctl, 7, True, _bind_plain,
                                      ("uts", BENCH_SHAPE))
    executed = stats.tasks_executed
    assert (executed, checksum) == uts_expected(BENCH_SHAPE)
    assert executed == 34_189
    assert calls[0] * 32 <= executed, calls[0]


def test_uts_checksums_are_pinned():
    """``uts_expected`` shares ``_fp_uts`` with the PEs, so a changed
    fingerprint would agree with itself: hold it to recorded values."""
    assert uts_expected(get_tree("test_tiny")) == (85, 589890851729230755)
    assert uts_expected(BENCH_SHAPE) == (34_189, 0x6A6EE1B82C9B7961)
