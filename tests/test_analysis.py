"""Tests for the analysis harness: sweeps, series, reports, experiments."""

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment
from repro.analysis.report import ascii_table, format_value, sparkline, write_csv
from repro.analysis.series import (
    relative_improvement,
    speedup_factor,
    summarize_cells,
)
from repro.analysis.sweep import SweepConfig, run_sweep
from repro.core.config import QueueConfig
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task


def tiny_factory():
    reg = TaskRegistry()

    def root(payload, tc):
        return TaskOutcome(1e-5, [Task(1) for _ in range(60)])

    reg.register("root", root)
    reg.register("leaf", lambda p, tc: TaskOutcome(2e-4))
    return reg, [Task(0)]


TINY_SWEEP = SweepConfig(
    npes_list=(2, 4),
    reps=2,
    queue_config=QueueConfig(qsize=256, task_size=16),
)


class TestSweep:
    def test_grid_size(self):
        points = run_sweep(tiny_factory, TINY_SWEEP)
        assert len(points) == 2 * 2 * 2  # impls x npes x reps

    def test_rows_flat(self):
        points = run_sweep(tiny_factory, TINY_SWEEP)
        row = points[0].row()
        assert {"impl", "rep", "seed", "runtime", "tasks"} <= set(row)

    def test_all_runs_complete_workload(self):
        points = run_sweep(tiny_factory, TINY_SWEEP)
        assert all(p.stats.total_tasks == 61 for p in points)


class TestSeries:
    @pytest.fixture(scope="class")
    def cells(self):
        return summarize_cells(run_sweep(tiny_factory, TINY_SWEEP))

    def test_one_cell_per_impl_npes(self, cells):
        assert len(cells) == 4
        keys = {(c.impl, c.npes) for c in cells}
        assert keys == {("sws", 2), ("sws", 4), ("sdc", 2), ("sdc", 4)}

    def test_reps_counted(self, cells):
        assert all(c.reps == 2 for c in cells)

    def test_variation_stats(self, cells):
        for c in cells:
            assert c.runtime_min <= c.runtime_mean <= c.runtime_max
            assert c.rel_sd_pct >= 0
            assert c.rel_range_pct >= c.rel_sd_pct

    def test_relative_improvement_keys(self, cells):
        imp = relative_improvement(cells)
        assert set(imp) == {2, 4}
        assert all(v > 0 for v in imp.values())

    def test_speedup_factor(self, cells):
        f = speedup_factor(cells, "steal_time")
        assert set(f) <= {2, 4}


class TestReport:
    def test_ascii_table_alignment(self):
        out = ascii_table(["a", "bb"], [[1, 2.5], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_value(self):
        assert format_value(0) == "0"
        assert format_value(True) == "True"
        assert format_value(1234) == "1234"
        assert format_value(0.000001) == "1.000e-06"
        assert format_value("x") == "x"

    def test_sparkline(self):
        assert sparkline([]) == ""
        assert len(sparkline([1, 2, 3])) == 3
        assert sparkline([5, 5]) == "▁▁"

    def test_write_csv(self, tmp_path):
        p = write_csv(tmp_path / "out" / "t.csv", ["a", "b"], [[1, 2], [3, 4]])
        text = p.read_text()
        assert text.splitlines() == ["a,b", "1,2", "3,4"]


class TestExperiments:
    def test_registry_covers_every_artifact(self):
        must_have = {"fig2", "tab1", "fig34", "fig5", "fig6", "tab2", "fig7", "fig8"}
        assert must_have <= set(EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fig2_counts_match_paper(self):
        r = run_experiment("fig2")
        by_impl = {row[0]: row for row in r.rows}
        assert by_impl["SDC"][1:] == [6, 5, 1]
        assert by_impl["SWS"][1:] == [3, 2, 1]

    def test_fig34_render(self):
        r = run_experiment("fig34")
        text = r.render()
        assert "fig34" in text and "asteals" in text

    def test_fig5_epochs_eliminate_wait(self):
        r = run_experiment("fig5")
        wait = {row[0]: row[1] for row in r.rows}
        assert wait[1] > 0
        assert wait[2] == 0

    def test_fig6_small_volume_ratio_near_two(self):
        r = run_experiment("fig6")
        # columns: task bytes, volume, sdc us, sws us, ratio
        small = [row for row in r.rows if row[0] == 24 and row[1] == 2][0]
        assert small[4] > 1.6
        big = [row for row in r.rows if row[0] == 192][-1]
        assert big[4] < small[4]

    def test_tab1_lifecycle(self):
        r = run_experiment("tab1")
        assert r.rows[0][1] == "AAA"
        assert r.rows[-1][1] == "III"

    def test_tab2_lists_both_workloads(self):
        r = run_experiment("tab2")
        names = [row[0] for row in r.rows]
        assert any("BPC" in n for n in names)
        assert any("UTS" in n for n in names)

    def test_cli_single_experiment(self, capsys, tmp_path):
        from repro.__main__ import main

        rc = main(["sweep", "--scenarios", "fig2", "--tables", "--no-cache",
                   "--jobs", "1", "--csv-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "== fig2: Steal communication counts" in out
        assert (tmp_path / "fig2.csv").read_text().startswith("impl,total comms")

    def test_cli_unknown_experiment(self, capsys):
        from repro.__main__ import main

        assert main(["sweep", "--scenarios", "nope", "--no-cache"]) == 2
        assert "valid ids: " in capsys.readouterr().err
