"""Tests for the sweep runner (repro.analysis.sweep) over the table.

The acceptance contract from docs/performance.md: a job's *payload* is a
pure function of (spec, code version) — byte-identical whether it ran
serially, in a process-pool worker, or was read back from the experiment
table.  What a failing job does to a sweep is in ``test_table.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweep import (
    SweepJob,
    bench_report,
    code_version,
    resolve_jobs,
    run_job,
    run_jobs,
)
from repro.analysis.table import Table


def _cell_jobs():
    return [
        SweepJob.cell("test_tiny", "sws", 2, 7),
        SweepJob.cell("test_tiny", "sdc", 2, 7),
    ]


@pytest.fixture
def table(tmp_path):
    t = Table(tmp_path / "store" / "experiments.db")
    yield t
    t.close()


def _payloads(outcome):
    return [json.dumps(rec["payload"], sort_keys=True) for rec in outcome.records]


# ----------------------------------------------------------------------
# serial == parallel == read back from the table
# ----------------------------------------------------------------------
def test_serial_pool_and_cache_agree(table):
    jobs = _cell_jobs() + [SweepJob.bench("fig6")]

    serial = run_jobs(jobs, workers=1)
    assert serial.mode == "serial" and serial.workers == 1
    assert serial.hits == 0

    pooled = run_jobs(jobs, workers=2, table=table)
    # Pool startup may legitimately fail in a constrained sandbox, in
    # which case the runner must have fallen back to serial — either
    # way every record exists and the payloads are identical.
    assert pooled.mode in ("pool", "serial")
    assert pooled.hits == 0
    assert all(table.get(job.spec(), code_version()) for job in jobs)

    cached = run_jobs(jobs, workers=2, table=table)
    assert cached.hits == len(jobs)
    assert all(rec["cached"] for rec in cached.records)

    assert _payloads(serial) == _payloads(pooled) == _payloads(cached)
    # Records stay aligned with the submitted job order.
    for job, rec in zip(jobs, serial.records):
        assert rec["spec"] == job.spec()


def test_refresh_ignores_but_rewrites_cache(table):
    jobs = _cell_jobs()[:1]
    first = run_jobs(jobs, workers=1, table=table)
    stored = table.get(jobs[0].spec(), code_version())
    stored["wall_s"] = -1.0  # mark the stored row
    table.put(jobs[0].spec(), code_version(), stored)
    refreshed = run_jobs(jobs, workers=1, table=table, refresh=True)
    assert refreshed.hits == 0
    assert not refreshed.records[0]["cached"]
    assert _payloads(first) == _payloads(refreshed)
    assert table.get(jobs[0].spec(), code_version())["wall_s"] >= 0  # rewritten


def test_stale_code_version_is_a_miss(table):
    jobs = _cell_jobs()[:1]
    fresh = run_jobs(jobs, workers=1).records[0]
    table.put(jobs[0].spec(), "deadbeefcafe", fresh)

    again = run_jobs(jobs, workers=1, table=table)
    assert again.hits == 0  # another version's row must not be served
    assert again.records[0]["code_version"] == code_version()
    assert table.code_versions() == sorted(["deadbeefcafe", code_version()])


def test_error_row_is_not_a_hit(table):
    """Only ``done`` rows are served; an ``error`` row is pulled again."""
    jobs = _cell_jobs()[:1]
    table.put(jobs[0].spec(), code_version(), {
        "status": "error", "error": "Boom", "verdict": "", "payload": {},
        "wall_s": 0.0, "events": 0,
    })
    outcome = run_jobs(jobs, workers=1, table=table)
    assert outcome.hits == 0
    assert table.get(jobs[0].spec(), code_version())["status"] == "done"


# ----------------------------------------------------------------------
# worker-count policy
# ----------------------------------------------------------------------
def test_resolve_jobs_policy(monkeypatch):
    import os

    monkeypatch.delenv("CI", raising=False)
    ncpu = os.cpu_count() or 1

    assert resolve_jobs(None) == ncpu          # default: the machine
    assert resolve_jobs(5) == 5                # explicit request wins
    assert resolve_jobs(0) == 1                # clamped to at least one

    monkeypatch.setenv("CI", "true")
    assert resolve_jobs(None) == min(2, ncpu)  # shared runners: cap at 2
    assert resolve_jobs(4) == 4                # ...unless asked

    monkeypatch.setenv("CI", "false")
    assert resolve_jobs(None) == ncpu          # CI=false is not CI


# ----------------------------------------------------------------------
# row identity
# ----------------------------------------------------------------------
def test_code_version_shape_and_stability():
    v = code_version()
    assert len(v) == 12
    int(v, 16)  # hex
    assert code_version() == v


def test_job_keys_separate_specs_and_versions(table):
    a = SweepJob.cell("test_tiny", "sws", 2, 7)
    b = SweepJob.cell("test_tiny", "sws", 2, 8)

    def row(events):
        return {"status": "done", "error": "", "verdict": "", "payload": {},
                "wall_s": 0.0, "events": events}

    table.put(a.spec(), "v1", row(1))
    table.put(b.spec(), "v1", row(2))                      # other seed
    table.put(a.spec(), "v2", row(3))                      # other version
    table.put(SweepJob.bench("fig2").spec(), "v1", row(4))  # other kind
    same = SweepJob.cell("test_tiny", "sws", 2, 7)          # equal spec: same row
    table.put(same.spec(), "v1", row(5))
    assert [table.get(j.spec(), v)["events"] for j, v in
            ((a, "v1"), (b, "v1"), (a, "v2"), (SweepJob.bench("fig2"), "v1"))
            ] == [5, 2, 3, 4]


def test_a_cell_names_its_backend_and_keeps_its_exact_fields():
    """One cell spec on either backend; a real-time cell's row is its
    books, and its verdict is whether they balanced."""
    fabric = SweepJob.cell("test_tiny", "sws", 2, 0)
    mp = SweepJob.cell("test_tiny", "sws", 2, 0, "mp")
    assert fabric.spec()["backend"] == "fabric" and mp.spec() != fabric.spec()
    assert mp.label() == "mp:test_tiny/sws/n2/s0"

    row = run_job(mp.spec())
    assert (row["status"], row["verdict"], row["events"]) == ("done", "PASS", 85)
    assert row["payload"]["summary"] == {
        "checksum": 589890851729230755, "completed": 85, "conserved": True,
        "created": 85, "npes": 2, "tasks": 85}
    assert run_job(fabric.spec())["payload"]["summary"]["tasks"] == 85


# ----------------------------------------------------------------------
# bench jobs + the --out dump
# ----------------------------------------------------------------------
def test_bench_job_is_deterministic():
    spec = SweepJob.bench("fig2").spec()
    one = run_job(spec)
    two = run_job(spec)
    assert one["payload"] == two["payload"]
    assert one["payload"]["exp_id"] == "fig2"
    assert one["payload"]["rows"] and one["payload"]["claim"]
    assert one["status"] == "done" and one["verdict"] == "PASS"
    assert one["events"] == two["events"] > 0


def test_bench_report_schema():
    outcome = run_jobs([SweepJob.bench("fig2")], workers=1)
    report = bench_report(outcome)
    assert report["schema"] == 1
    assert report["code_version"] == code_version()
    fig2 = report["scenarios"]["fig2"]
    assert fig2["events"] > 0
    assert fig2["events_per_sec"] > 0
    assert fig2["cached"] is False


# ----------------------------------------------------------------------
# CLI wiring (python -m repro sweep)
# ----------------------------------------------------------------------
def test_cli_sweep_writes_report(tmp_path):
    from repro.__main__ import main

    out = tmp_path / "BENCH_fabric.json"
    rc = main([
        "sweep", "--scenarios", "fig2", "--no-cache", "--quiet",
        "--jobs", "1", "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert "fig2" in report["scenarios"]
