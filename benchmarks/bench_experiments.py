"""Every registered experiment reproduces its claim.

One case per entry of ``EXPERIMENTS``: run it at quick scale, print the
regenerated series, and require the verdict of the judge written beside
the experiment in ``repro/analysis/experiments.py`` — the same judge
``python -m repro sweep`` and EXPERIMENTS.md report.
"""

import pytest

from repro.analysis.experiments import EXPERIMENTS, run_experiment

from .conftest import emit


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_experiment_reproduces_its_claim(exp_id):
    result = run_experiment(exp_id)
    emit(result)
    assert result.verdict == "PASS", result.claim
