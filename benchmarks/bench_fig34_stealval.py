"""Figures 3 & 4: stealval codec — layout check."""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_fig34_layouts():
    result = run_experiment("fig34")
    emit(result)
    v1_row = result.rows[0]
    assert v1_row[2:] == [2, 1, 150, 500]

