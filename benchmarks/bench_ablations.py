"""Ablation benches for the design choices DESIGN.md §5 calls out:
steal damping, completion-epoch count, and target contention."""

from repro.analysis.experiments import run_experiment

from .conftest import emit


def test_ablate_damping():
    """§4.3: damping must not cost runtime, and should not increase
    total communication."""
    result = run_experiment("ablate-damping")
    emit(result)
    rows = {bool(r[0]): r for r in result.rows}
    off, on = rows[False], rows[True]
    # No significant runtime penalty (paper: none measurable).
    assert on[1] < off[1] * 1.25
    # Damping doesn't inflate total traffic.
    assert on[2] <= off[2] * 1.10


def test_ablate_epochs():
    """Both epoch settings complete correctly; runtimes stay in the same
    regime (epochs pay off under heavier acquire churn than this tiny
    workload generates, so we assert sanity, not a win)."""
    result = run_experiment("ablate-epochs")
    emit(result)
    runtimes = [r[1] for r in result.rows]
    assert all(rt > 0 for rt in runtimes)
    assert max(runtimes) < min(runtimes) * 2.0


def test_ablate_contention():
    """§6: SWS has 'significantly better properties when a target is
    contended' — more simultaneous thieves succeed, each much faster."""
    result = run_experiment("ablate-contention")
    emit(result)
    rows = {r[0]: r for r in result.rows}
    sdc, sws = rows["SDC"], rows["SWS"]
    assert sws[1] >= sdc[1]          # at least as many successful steals
    assert sws[2] < sdc[2] / 2       # mean steal latency under half
    assert sws[3] < sdc[3]           # tail latency lower too
