"""Benches for the extension ablations: granularity, latency scaling,
the Figure-3 queue variant, steal-volume policy, and lifelines."""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_ablate_granularity():
    """§2: the SWS advantage decays toward parity as tasks coarsen, and
    balancer overhead stays well below SDC's at every grain."""
    result = run_experiment("ablate-granularity")
    emit(result)
    # rows: [task us, sdc ms, sws ms, rel %, sdc ovh, sws ovh]
    for row in result.rows:
        assert row[5] < row[4], f"SWS overhead not lower at {row[0]}us tasks"
    assert abs(result.rows[-1][3] - 100.0) < 3.0  # parity at coarse grain


def test_ablate_latency_scaling():
    """The absolute steal-time gap grows with wire latency."""
    result = run_experiment("ablate-latency")
    emit(result)
    gaps = [row[4] for row in result.rows]
    assert gaps == sorted(gaps)
    assert all(row[3] > 1.5 for row in result.rows)  # ratio stays ~2x


def test_ablate_v1_variant():
    """Fig-3 and Fig-4 queues both complete the workload."""
    result = run_experiment("ablate-v1")
    emit(result)
    assert {row[0] for row in result.rows} == {"sws-v1", "sws"}
    assert all(row[1] > 0 for row in result.rows)


def test_ablate_steal_volume():
    """Steal-half needs far fewer steal operations than steal-one."""
    result = run_experiment("ablate-steal-volume")
    emit(result)
    by = {row[0]: row for row in result.rows}
    assert by["half"][2] < by["one"][2] / 2   # far fewer steals
    assert by["half"][4] < by["one"][4]       # fewer comms
    assert by["half"][1] <= by["one"][1] * 1.05  # no slower


def test_ablate_lifelines():
    """Lifelines collapse failed-steal traffic at held runtime."""
    result = run_experiment("ablate-lifelines")
    emit(result)
    by = {bool(row[0]): row for row in result.rows}
    assert by[True][2] < by[False][2] * 0.1   # >10x fewer failed steals
    assert by[True][3] < by[False][3] * 0.5   # total comms halved at least
    assert by[True][1] < by[False][1] * 1.3   # runtime in the same regime


def test_ablate_termination():
    """Tree detection latency beats the ring increasingly with scale."""
    result = run_experiment("ablate-termination")
    emit(result)
    ratios = [row[3] for row in result.rows]
    assert all(r > 1.0 for r in ratios)
    assert ratios[-1] > ratios[0]


def test_ablate_victims():
    """Locality-aware victims trim steal time on multi-node layouts."""
    result = run_experiment("ablate-victims")
    emit(result)
    by = {row[0]: row for row in result.rows}
    assert by["locality"][2] < by["uniform"][2]
    # All policies complete in the same runtime regime.
    runtimes = [row[1] for row in result.rows]
    assert max(runtimes) < min(runtimes) * 1.2


def test_ablate_bandwidth():
    """Link serialization stretches contended bulk-steal tails."""
    result = run_experiment("ablate-bandwidth")
    emit(result)
    by = {bool(row[0]): row for row in result.rows}
    assert by[True][2] > by[False][2]
    assert by[True][3] > by[False][3]
