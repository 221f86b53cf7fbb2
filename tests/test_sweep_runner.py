"""Tests for the parallel cached sweep runner (repro.analysis.sweep).

The acceptance contract from docs/performance.md: a job's *payload* is a
pure function of (spec, code version) — byte-identical whether it ran
serially, in a process-pool worker, or was replayed from the on-disk
cache — and the worker-count policy degrades to serial deterministically.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.sweep import (
    SERIAL_ENV,
    ResultCache,
    SweepJob,
    bench_report,
    code_version,
    resolve_jobs,
    run_job,
    run_jobs,
)


def _cell_jobs():
    return [
        SweepJob.cell("test_tiny", "sws", 2, 7),
        SweepJob.cell("test_tiny", "sdc", 2, 7),
    ]


def _payloads(outcome):
    return [rec["payload"] for rec in outcome.records]


# ----------------------------------------------------------------------
# serial == parallel == cached
# ----------------------------------------------------------------------
def test_serial_pool_and_cache_agree(tmp_path, monkeypatch):
    monkeypatch.delenv(SERIAL_ENV, raising=False)
    jobs = _cell_jobs()

    serial = run_jobs(jobs, workers=1, cache=None)
    assert serial.mode == "serial"
    assert serial.hits == 0

    cache = ResultCache(tmp_path / "store")
    pooled = run_jobs(jobs, workers=2, cache=cache)
    # Pool startup may legitimately fail in a constrained sandbox, in
    # which case the runner must have fallen back to serial — either
    # way every record exists and the payloads are identical.
    assert pooled.mode in ("pool", "serial")
    assert pooled.hits == 0
    assert len(cache) == len(jobs)

    cached = run_jobs(jobs, workers=2, cache=cache)
    assert cached.hits == len(jobs)
    assert all(rec["cached"] for rec in cached.records)

    assert _payloads(serial) == _payloads(pooled) == _payloads(cached)
    # Records stay aligned with the submitted job order.
    for job, rec in zip(jobs, serial.records):
        assert rec["spec"] == job.spec()


def test_refresh_ignores_but_rewrites_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(SERIAL_ENV, "1")
    jobs = _cell_jobs()[:1]
    cache = ResultCache(tmp_path)
    first = run_jobs(jobs, cache=cache)
    refreshed = run_jobs(jobs, cache=cache, refresh=True)
    assert refreshed.hits == 0
    assert not refreshed.records[0]["cached"]
    assert _payloads(first) == _payloads(refreshed)


def test_stale_code_version_is_a_miss(tmp_path, monkeypatch):
    monkeypatch.setenv(SERIAL_ENV, "1")
    jobs = _cell_jobs()[:1]
    cache = ResultCache(tmp_path)
    run_jobs(jobs, cache=cache)

    key = jobs[0].key(code_version())
    record = cache.get(key)
    record["code_version"] = "deadbeefcafe"
    cache.put(key, record)

    again = run_jobs(jobs, cache=cache)
    assert again.hits == 0  # stale version must not be served
    assert again.records[0]["code_version"] == code_version()


# ----------------------------------------------------------------------
# worker-count policy + forced-serial degradation
# ----------------------------------------------------------------------
def test_forced_serial_env_wins(monkeypatch):
    monkeypatch.setenv(SERIAL_ENV, "1")
    assert resolve_jobs(None) == 1
    assert resolve_jobs(16) == 1

    outcome = run_jobs(_cell_jobs()[:1], workers=16, cache=None)
    assert outcome.mode == "serial"
    assert outcome.workers == 1


def test_resolve_jobs_policy(monkeypatch):
    import os

    monkeypatch.delenv(SERIAL_ENV, raising=False)
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

    monkeypatch.setenv(SERIAL_ENV, "0")
    assert resolve_jobs(None) == ncpu          # SERIAL=0 is off


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------
def test_code_version_shape_and_stability():
    v = code_version()
    assert len(v) == 12
    int(v, 16)  # hex
    assert code_version() == v


def test_job_keys_separate_specs_and_versions():
    a = SweepJob.cell("test_tiny", "sws", 2, 7)
    b = SweepJob.cell("test_tiny", "sws", 2, 8)
    assert a.key("v1") == SweepJob.cell("test_tiny", "sws", 2, 7).key("v1")
    assert a.key("v1") != b.key("v1")
    assert a.key("v1") != a.key("v2")
    assert a.key("v1") != SweepJob.bench("fig2").key("v1")
    assert len(a.key("v1")) == 32


def test_cache_corruption_degrades_to_miss(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.get("nope") is None
    cache.put("k", {"payload": 1})
    assert cache.get("k") == {"payload": 1}
    (tmp_path / "k.json").write_text("{not json")
    assert cache.get("k") is None
    # Atomic writes never leave a temp file behind.
    assert not list(tmp_path.glob("*.tmp"))


# ----------------------------------------------------------------------
# bench jobs + the BENCH_fabric.json report
# ----------------------------------------------------------------------
def test_bench_job_is_deterministic():
    spec = SweepJob.bench("fig2").spec()
    one = run_job(spec)
    two = run_job(spec)
    assert one["payload"] == two["payload"]
    assert one["payload"]["exp_id"] == "fig2"
    assert one["payload"]["rows"]
    assert one["meta"]["events"] == two["meta"]["events"] > 0


def test_bench_report_schema(monkeypatch):
    monkeypatch.setenv(SERIAL_ENV, "1")
    outcome = run_jobs([SweepJob.bench("fig2")], cache=None)
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
def test_cli_sweep_writes_report(tmp_path, monkeypatch):
    from repro.__main__ import main

    monkeypatch.setenv(SERIAL_ENV, "1")
    out = tmp_path / "BENCH_fabric.json"
    rc = main([
        "sweep", "--scenarios", "fig2", "--no-cache", "--quiet",
        "--out", str(out),
    ])
    assert rc == 0
    report = json.loads(out.read_text())
    assert "fig2" in report["scenarios"]
