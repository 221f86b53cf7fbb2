"""``python -m repro sweep --diff CODE_VERSION``: the regression diff.

The rows a sweep just produced (or read back) against the same jobs' rows
at another code version, compared exactly; exit 1 on any difference.
"""

import pytest

from repro.__main__ import main
from repro.analysis.sweep import SweepJob, code_version
from repro.analysis.table import Table


@pytest.fixture
def db(tmp_path):
    """A table holding fig2 at this code version and a copy at 'before'."""
    path = tmp_path / "experiments.db"
    assert main(["sweep", "--scenarios", "fig2", "--jobs", "1", "--quiet",
                 "--cache", str(path)]) == 0
    return path


def copy_row(path, mutate=lambda payload: None, version="before"):
    table = Table(path)
    spec = SweepJob.bench("fig2").spec()
    row = table.get(spec, code_version())
    mutate(row["payload"])
    table.put(spec, version, row)
    table.close()


def diff(path, version="before"):
    return main(["sweep", "--scenarios", "fig2", "--jobs", "1", "--quiet",
                 "--cache", str(path), "--diff", version])


def test_no_change_exit_zero(db, capsys):
    copy_row(db)
    assert diff(db) == 0
    out = capsys.readouterr().out
    assert f"== fig2 (before -> {code_version()}) ==" in out
    assert "(no changes)" in out


def test_change_reported(db, capsys):
    def halve_sws_total(payload):
        payload["rows"][1][1] = 2

    copy_row(db, halve_sws_total)
    diff(db)
    assert "row 1 total comms: 2 -> 3 (+50.0%)" in capsys.readouterr().out


def test_fail_on_change(db, capsys):
    copy_row(db, lambda payload: payload["rows"].pop())
    assert diff(db) == 1  # a shape change fails like a cell change
    assert "shape: 1 rows x " in capsys.readouterr().out


def test_no_shared_experiments(db, capsys):
    copy_row(db)
    assert diff(db, "deadbeefcafe") == 2
    err = capsys.readouterr().err
    assert "deadbeefcafe" in err and "before" in err  # names what it holds
