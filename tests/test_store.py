"""Stored results: the experiment table's round trip and its exact diff."""

import dataclasses

import pytest

from repro.analysis.experiments import ExperimentResult
from repro.analysis.sweep import SweepJob
from repro.analysis.table import RowDiff, Table, diff_payloads, render_diff


def make_payload(exp_id="fig6", scale=1.0):
    payload = dataclasses.asdict(ExperimentResult(
        exp_id=exp_id,
        title="steal time",
        headers=["impl", "volume", "us"],
        rows=[["sws", 2, 1.3 * scale], ["sws", 8, 1.4 * scale],
              ["sdc", 2, 3.1 * scale]],
        notes=["a note"],
        claim="a claim",
        verdict="PASS",
    ))
    del payload["ops"]
    return payload


def done(payload):
    return {"status": "done", "error": "", "verdict": payload["verdict"],
            "payload": payload, "wall_s": 0.25, "events": 7}


@pytest.fixture
def table(tmp_path):
    t = Table(tmp_path / "results" / "experiments.db")
    yield t
    t.close()


class TestSaveLoad:
    def test_round_trip(self, table):
        spec = SweepJob.bench("fig6").spec()
        table.put(spec, "v1", done(make_payload()))
        reader = Table(table.path)  # a second connection: it is on disk
        row = reader.get(spec, "v1")
        reader.close()
        assert row["status"] == "done" and row["verdict"] == "PASS"
        assert (row["wall_s"], row["events"]) == (0.25, 7)
        loaded = ExperimentResult(**row["payload"])
        assert loaded.rows == make_payload()["rows"]
        assert loaded.headers == ["impl", "volume", "us"]
        assert loaded.notes == ["a note"]
        assert loaded.claim == "a claim"

    def test_listing(self, table):
        table.put(SweepJob.bench("fig6").spec(), "base", done(make_payload()))
        table.put(SweepJob.bench("fig7").spec(), "base", done(make_payload("fig7")))
        table.put(SweepJob.bench("fig6").spec(), "tuned", done(make_payload()))
        assert table.code_versions() == ["base", "tuned"]
        assert table.get(SweepJob.bench("fig7").spec(), "tuned") is None

    def test_missing_result(self, table):
        assert table.get(SweepJob.bench("fig6").spec(), "nope") is None
        # Same name, other params: a different row.
        table.put(SweepJob.bench("fig6", "quick").spec(), "v1", done(make_payload()))
        assert table.get(SweepJob.bench("fig6", "full").spec(), "v1") is None

    def test_schema_checked(self, table):
        table.db.execute("PRAGMA user_version = 99")
        table.db.commit()
        with pytest.raises(ValueError, match="schema 99"):
            Table(table.path)


class TestCompare:
    def test_aligned_diff(self):
        diffs = diff_payloads(make_payload(), make_payload(scale=2.0))
        assert len(diffs) == 3
        d = diffs[0]
        assert (d.row, d.column) == (0, "us")
        assert d.rel_change() == pytest.approx(1.0)  # doubled

    def test_header_mismatch_rejected(self):
        a, b, c = make_payload(), make_payload(), make_payload()
        b["headers"] = ["impl", "volume", "ms"]
        c["rows"] = c["rows"][:1]
        for other in (b, c):  # a shape change is one diff, never a cell walk
            (d,) = diff_payloads(a, other)
            assert d.row == -1 and d.render().startswith("shape: ")

    def test_rel_change_non_numeric(self):
        assert RowDiff(0, "us", 0, 1.5).rel_change() is None    # zero baseline
        assert RowDiff(0, "impl", "sws", "sdc").rel_change() is None
        assert RowDiff(0, "flag", True, False).rel_change() is None

    def test_flat_payloads_diff_as_one_row(self):
        """cell / mp payloads have no grid: their keys are the columns."""
        a = {"summary": {"runtime": 1.0, "steals": 4}}
        b = {"summary": {"runtime": 1.0, "steals": 5}}
        (d,) = diff_payloads(a, b)
        assert (d.row, d.column, d.before, d.after) == (0, "steals", 4, 5)


class TestRenderDiff:
    def test_every_change_listed(self):
        out = render_diff(diff_payloads(make_payload(), make_payload(scale=1.5)))
        assert out.count("\n") == 3 and "(+50.0%)" in out
        # Exact comparison: no threshold hides a small change.
        a, b = make_payload(), make_payload()
        b["rows"][1][2] += 1e-12
        assert render_diff(diff_payloads(a, b)).startswith("row 1 us: 1.4 -> ")

    def test_no_change(self):
        out = render_diff(diff_payloads(make_payload(), make_payload()))
        assert out == "(no changes)\n"
