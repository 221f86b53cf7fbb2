"""Figure 5: acquire behaviour with completion epochs.

Regenerates the epoch-wait comparison: a single-epoch owner must poll out
an in-flight steal at acquire time; two epochs overlap it entirely.
"""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_fig5_epoch_wait():
    result = run_experiment("fig5")
    emit(result)
    wait_us = {row[0]: row[1] for row in result.rows}
    assert wait_us[1] > 0, "single epoch must stall on the in-flight steal"
    assert wait_us[2] == 0, "two epochs must not stall (paper §4.2)"
