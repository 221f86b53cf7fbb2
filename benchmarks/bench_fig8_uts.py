"""Figure 8 (panels a-f): the UTS sweep, SDC vs SWS.

UTS tasks are ~110 ns, so the load balancer's communication is the whole
story; the paper's shapes are stronger here:

* (a/b) SWS throughput at or above SDC at every PE count (paper: ~9%
  whole-program improvement at scale);
* (e) steal time lower under SWS (paper: 3-4x);
* (f) search time lower under SWS.
"""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_fig8_uts_sweep():
    result = run_experiment("fig8")
    emit(result)
    rows = {(r[0], r[1]): r for r in result.rows}
    npes_list = sorted({k[1] for k in rows})

    steal_wins = search_wins = runtime_wins = 0
    for n in npes_list:
        sdc, sws = rows[("SDC", n)], rows[("SWS", n)]
        steal_wins += sws[8] < sdc[8]
        search_wins += sws[9] < sdc[9]
        runtime_wins += sws[2] <= sdc[2] * 1.02
    # Steal and search overheads: SWS must win everywhere.
    assert steal_wins == len(npes_list)
    assert search_wins >= len(npes_list) - 1
    # Whole-program runtime: SWS at least as fast at (nearly) every scale
    # (tiny-tree noise may flip isolated points at small PE counts).
    assert runtime_wins >= len(npes_list) - 1

    # The mean steal-time advantage should be a clear factor, not noise.
    factors = [rows[("SDC", n)][8] / rows[("SWS", n)][8] for n in npes_list]
    assert sum(factors) / len(factors) > 1.3
