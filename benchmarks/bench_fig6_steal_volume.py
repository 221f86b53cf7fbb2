"""Figure 6: steal operation time vs steal volume (24 B and 192 B tasks).

Shape assertions (paper §5.1): SWS is roughly half of SDC at small steal
volumes; as the volume grows the task copy dominates and the curves
converge.
"""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_fig6_steal_volume():
    result = run_experiment("fig6")
    emit(result)
    # rows: [task bytes, volume, sdc_us, sws_us, ratio]
    by_key = {(r[0], r[1]): r for r in result.rows}
    volumes = sorted({r[1] for r in result.rows})

    for ts in (24, 192):
        # SWS beats SDC at every volume.
        for v in volumes:
            assert by_key[(ts, v)][3] < by_key[(ts, v)][2]
        # Near-2x at the smallest volume...
        assert by_key[(ts, volumes[0])][4] > 1.6
        # ...and converging (monotone shrinking ratio) at the largest.
        assert by_key[(ts, volumes[-1])][4] < by_key[(ts, volumes[0])][4]

    # Larger tasks converge faster: at the top volume, the 192 B ratio is
    # closer to 1 than the 24 B ratio.
    assert by_key[(192, volumes[-1])][4] < by_key[(24, volumes[-1])][4]
