"""Experiment harness: regenerate every table and figure of the paper."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "EXPERIMENTS": "experiments",
    "ExperimentResult": "experiments",
    "run_experiment": "experiments",
    "AsciiChart": "plots",
    "chart_cells": "plots",
    "Table": "table",
    "RowDiff": "table",
    "diff_payloads": "table",
    "render_diff": "table",
    "ascii_table": "report",
    "sparkline": "report",
    "write_csv": "report",
    "CellSummary": "series",
    "by_impl": "series",
    "relative_improvement": "series",
    "speedup_factor": "series",
    "summarize_cells": "series",
    "SweepConfig": "series",
    "SweepPoint": "series",
    "run_point": "series",
    "run_sweep": "series",
})
