"""What the experiment table guarantees a sweep.

A job that raises is a row, not the end of the run; every row is on disk
the moment its job finishes; a killed writer leaves whole rows only; and
the views rendered from rows are byte-stable.  (Round trip, schema check
and the exact diff: ``test_store.py``; ``--diff``: ``test_compare_tool.py``.)
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.__main__ import main
from repro.analysis import experiments
from repro.analysis.sweep import SweepJob, code_version, run_jobs
from repro.analysis.table import Table


@pytest.fixture
def table(tmp_path):
    t = Table(tmp_path / "t.db")
    yield t
    t.close()


@pytest.fixture
def boom(monkeypatch):
    """Register ``boom``: an experiment whose run raises RuntimeError.

    Pool workers are forked from this process, so they see it too.
    """
    def exp_boom(scale):
        raise RuntimeError("boom went the experiment")

    monkeypatch.setitem(
        experiments.EXPERIMENTS, "boom",
        experiments.Experiment(exp_boom, "never", lambda rows: True),
    )


def test_raising_job_is_a_row_and_the_rest_are_on_disk(table, boom):
    path = table.path
    jobs = [SweepJob.bench("fig2"), SweepJob.bench("boom"), SweepJob.bench("fig5")]
    on_disk_at_failure = []

    def progress(msg):
        if msg.startswith("ERROR"):
            reader = Table(path)  # a second connection sees committed rows only
            on_disk_at_failure.append(reader.get(jobs[0].spec(), code_version()))
            reader.close()

    outcome = run_jobs(jobs, workers=1, table=table, progress=progress)
    assert [r["status"] for r in outcome.records] == ["done", "error", "done"]
    assert on_disk_at_failure[0]["status"] == "done"
    assert outcome.failed() == ["boom (error)"]

    reader = Table(path)
    stored = [reader.get(job.spec(), code_version()) for job in jobs]
    reader.close()
    assert [r["status"] for r in stored] == ["done", "error", "done"]
    assert "RuntimeError: boom went the experiment" in stored[1]["error"]
    assert stored[1]["payload"] == {} and stored[1]["verdict"] == ""


def test_sweep_with_a_failure_exits_1_naming_it(tmp_path, boom, capsys):
    path = tmp_path / "t.db"
    rc = main(["sweep", "--scenarios", "fig2,boom", "--jobs", "1", "--quiet",
               "--cache", str(path)])
    assert rc == 1
    captured = capsys.readouterr()
    assert "not PASS: boom (error)" in captured.err
    assert "RuntimeError: boom went the experiment" in captured.err
    assert "fig2 " in captured.out  # the good row was still reported


def test_runtime_error_in_a_pool_worker_is_not_a_pool_failure(boom):
    said = []
    outcome = run_jobs(
        [SweepJob.bench("boom"), SweepJob.bench("fig2"), SweepJob.bench("fig5")],
        workers=2, progress=said.append,
    )
    assert outcome.mode == "pool"
    assert not [m for m in said if "pool unavailable" in m or "[serial]" in m]
    assert [r["status"] for r in outcome.records] == ["error", "done", "done"]
    assert "RuntimeError" in outcome.records[0]["error"]


def test_unknown_scenario_is_refused_before_any_job(tmp_path, capsys):
    path = tmp_path / "t.db"
    rc = main(["sweep", "--scenarios", "fig2,nope", "--cache", str(path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert "unknown scenario(s) nope" in captured.err and "fig34" in captured.err
    assert "job(s)" not in captured.out and not path.exists()


def test_killed_writer_never_leaves_half_a_row(tmp_path):
    path = tmp_path / "t.db"
    script = textwrap.dedent(f"""
        import os, signal
        from repro.analysis.table import Table
        row = {{"status": "done", "error": "", "verdict": "PASS",
               "payload": {{"rows": [[1]]}}, "wall_s": 0.1, "events": 1}}
        t = Table({str(path)!r})
        t.put({{"kind": "bench", "name": "whole"}}, "v1", row)
        # die inside the second row's transaction, before its commit
        t.db.execute("INSERT INTO experiments (kind, name, params, code_version)"
                     " VALUES ('bench', 'half', '{{}}', 'v1')")
        os.kill(os.getpid(), signal.SIGKILL)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", script], timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == -signal.SIGKILL
    table = Table(path)
    assert table.get({"kind": "bench", "name": "whole"}, "v1")["payload"] == {"rows": [[1]]}
    assert table.get({"kind": "bench", "name": "half"}, "v1") is None
    table.put({"kind": "bench", "name": "half"}, "v1",
              table.get({"kind": "bench", "name": "whole"}, "v1"))  # still writable
    table.close()


def test_markdown_twice_gives_identical_bytes(tmp_path, capsys):
    args = ["sweep", "--scenarios", "fig2,fig6,tab1", "--jobs", "1", "--quiet",
            "--cache", str(tmp_path / "t.db"), "--markdown"]
    assert main(args + [str(tmp_path / "cold.md")]) == 0
    assert "0 cached, 3 ran" in capsys.readouterr().out
    assert main(args + [str(tmp_path / "warm.md")]) == 0
    assert "3 cached, 0 ran" in capsys.readouterr().out
    cold = (tmp_path / "cold.md").read_bytes()
    assert cold == (tmp_path / "warm.md").read_bytes()
    text = cold.decode()
    assert text.count("\n## ") == 3 and text.count("**Shape verdict:** PASS") == 3
    assert "regenerated in" not in text and "n/a" not in text
