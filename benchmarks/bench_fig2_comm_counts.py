"""Figure 2: steal communication counts — SDC 6 (5 blocking) vs SWS 3 (2).

Runs one complete steal operation per protocol and verifies the exact
message counts of the paper's Figure 2.
"""

from repro.analysis.experiments import run_experiment
from repro.workloads.synthetic import measure_single_steal

from .conftest import emit


def test_fig2_comm_counts():
    result = run_experiment("fig2")
    emit(result)
    counts = {row[0]: row[1:] for row in result.rows}
    assert counts["SDC"] == [6, 5, 1]
    assert counts["SWS"] == [3, 2, 1]


def test_bench_sdc_single_steal():
    r = measure_single_steal("sdc", 8, 24)
    assert r.comms["total"] == 6


def test_bench_sws_single_steal():
    r = measure_single_steal("sws", 8, 24)
    assert r.comms["total"] == 3
