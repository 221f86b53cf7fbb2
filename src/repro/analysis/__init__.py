"""Experiment harness: regenerate every table and figure of the paper."""

from .experiments import EXPERIMENTS, ExperimentResult, run_experiment
from .plots import AsciiChart, chart_cells
from .profiles import imbalance_report, profile_run, render_profiles
from .report import ascii_table, sparkline, write_csv
from .series import (
    CellSummary,
    by_impl,
    relative_improvement,
    speedup_factor,
    summarize_cells,
)
from .sweep import SweepConfig, SweepPoint, run_point, run_sweep
from .table import RowDiff, Table, diff_payloads, render_diff

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "run_experiment",
    "AsciiChart",
    "chart_cells",
    "profile_run",
    "render_profiles",
    "imbalance_report",
    "Table",
    "RowDiff",
    "diff_payloads",
    "render_diff",
    "ascii_table",
    "sparkline",
    "write_csv",
    "CellSummary",
    "by_impl",
    "relative_improvement",
    "speedup_factor",
    "summarize_cells",
    "SweepConfig",
    "SweepPoint",
    "run_point",
    "run_sweep",
]
