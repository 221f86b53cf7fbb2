"""Figure 7 (panels a-f): the BPC sweep, SDC vs SWS.

Regenerates all six panels from one sweep and asserts the paper's
qualitative shapes:

* (a/b) runtimes near parity — BPC is compute-dominated (coarse 5 ms
  tasks), so protocol latency moves the needle by percents, not factors;
* (c) efficiency high at small scale for both systems;
* (d) run-to-run variation small relative to the mean;
* (e) SWS total steal time below SDC at every PE count;
* (f) SWS search time below SDC at every PE count.
"""

from repro.analysis.experiments import run_experiment
from repro.analysis.series import CellSummary

from .conftest import emit


def _cells(result):
    """Reconstruct {(impl, npes): row} from the panel table."""
    return {(r[0], r[1]): r for r in result.rows}


def test_fig7_bpc_sweep():
    result = run_experiment("fig7")
    emit(result)
    rows = _cells(result)
    npes_list = sorted({k[1] for k in rows})

    for n in npes_list:
        sdc, sws = rows[("SDC", n)], rows[("SWS", n)]
        runtime_sdc, runtime_sws = sdc[2], sws[2]
        # (a/b) parity within 10% — coarse tasks hide protocol latency.
        assert abs(runtime_sdc - runtime_sws) / runtime_sdc < 0.10
        # (e) steal time: SWS strictly lower.
        assert sws[8] < sdc[8]
        # (f) search time: SWS strictly lower.
        assert sws[9] < sdc[9]

    # (c) both systems efficient at the smallest scale.
    assert rows[("SDC", npes_list[0])][5] > 90.0
    assert rows[("SWS", npes_list[0])][5] > 90.0

    # (d) variation small: relative SD under 5% everywhere.
    for key, row in rows.items():
        assert row[6] < 5.0, f"excessive run variation at {key}"
