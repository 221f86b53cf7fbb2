"""Serving experiment bodies: open-system runs through the fabric
serving frontend (:func:`repro.runtime.serving.run_serve`).

Each function is the body of the
:data:`~repro.analysis.experiments.EXPERIMENTS` row named after it, which
holds its claim and judge.
"""

from __future__ import annotations

from ..runtime.serving import run_serve
from .experiments import ExperimentResult


def serving(scale: str = "quick") -> ExperimentResult:
    """Tail latency and SLO attainment vs offered load, SDC vs SWS.

    A Poisson arrival stream is served by a 4-PE pool at three offered
    loads relative to the pool's service capacity (npes / task_s):
    underloaded, near saturation, and overloaded.  The overloaded rate
    runs with a shed threshold, so the shed column is the overload
    signal; the latency percentiles come from the virtual-clock
    enqueue-to-completion distribution of the same seeded trace for both
    protocols.
    """
    npes = 4
    task_s = 2e-6
    duration = 1e-3 if scale == "quick" else 4e-3
    slo_s = 5e-5  # 50us virtual SLO
    capacity = npes / task_s  # tasks/s the pool can absorb
    loads = [
        ("0.25x", 0.25, None),
        ("0.90x", 0.90, None),
        ("1.50x", 1.50, 64),
    ]
    rows = []
    for impl in ("sdc", "sws"):
        for label, factor, shed_threshold in loads:
            rate = int(capacity * factor)
            stats = run_serve(
                npes,
                impl=impl,
                arrival=f"poisson:{rate}",
                duration_s=duration,
                slo_s=slo_s,
                seed=11,
                task_s=task_s,
                shed_threshold=shed_threshold,
            )
            s = stats.serving
            pct = s.latency.percentiles()
            to_us = 1e6 / 1e15  # ticks -> microseconds
            rows.append([
                impl.upper(),
                label,
                s.emitted,
                s.injected,
                s.shed,
                round(pct["p50"] * to_us, 2),
                round(pct["p99"] * to_us, 2),
                round(pct["p999"] * to_us, 2),
                f"{s.slo_fraction:.1%}",
            ])
    return ExperimentResult(
        title="Open-system serving: tail latency vs offered load "
              f"({npes} PEs, {slo_s * 1e6:.0f}us SLO)",
        headers=["impl", "load", "emitted", "injected", "shed",
                 "p50 us", "p99 us", "p999 us", "SLO"],
        rows=rows,
        notes=[
            f"capacity = npes/task_s = {capacity:,.0f} tasks/s; the 1.50x "
            f"row runs with shed threshold 64 (overload signal)",
            "same seeded Poisson trace for both impls at each rate; "
            "latency is virtual enqueue-to-completion time",
        ],
    )


def _serving_bench(impl: str, scale: str) -> ExperimentResult:
    """One near-saturation serving run — the bench row for one impl.

    Single rate, single seed: the sweep runner measures the wall of the
    whole open-system machinery (arrival events, latency sketch,
    termination gating) per protocol, and the deterministic payload row
    (counts, percentiles, checksum) doubles as a change detector.
    """
    npes = 4
    task_s = 2e-6
    duration = 1e-3 if scale == "quick" else 4e-3
    rate = int(0.9 * npes / task_s)
    stats = run_serve(
        npes,
        impl=impl,
        arrival=f"poisson:{rate}",
        duration_s=duration,
        slo_s=5e-5,
        seed=11,
        task_s=task_s,
    )
    s = stats.serving
    pct = s.latency.percentiles()
    to_us = 1e6 / 1e15
    row = [
        impl.upper(), rate, s.emitted, s.injected, s.completed, s.shed,
        round(pct["p50"] * to_us, 2), round(pct["p99"] * to_us, 2),
        round(pct["p999"] * to_us, 2), f"{s.slo_fraction:.1%}",
        f"{s.checksum:#018x}",
    ]
    return ExperimentResult(
        title=f"Serving bench: {impl.upper()} at 0.9x capacity "
              f"({npes} PEs, Poisson)",
        headers=["impl", "rate", "emitted", "injected", "completed", "shed",
                 "p50 us", "p99 us", "p999 us", "SLO", "checksum"],
        rows=[row],
        notes=["near-saturation open-system run with the conservation "
               "oracle attached (a violation raises: an `error` row, not a "
               "FAIL); see `serving` for the full rate sweep"],
    )


def serving_sws(scale: str = "quick") -> ExperimentResult:
    """The near-saturation serving row under SWS."""
    return _serving_bench("sws", scale)


def serving_sdc(scale: str = "quick") -> ExperimentResult:
    """The near-saturation serving row under SDC."""
    return _serving_bench("sdc", scale)


def xbackend(scale: str = "quick") -> ExperimentResult:
    """The same work on the simulated fabric and on real processes.

    SWS and SDC each run UTS ``test_tiny``, BPC at ``BpcParams``'
    defaults and one seeded serving trace on both backends, four PEs
    apiece.  Only what no interleaving and no clock can move is kept: the
    task counts and checksums of each run, beside the sequential
    oracle's (for BPC, its ``BpcParams().total_tasks`` nodes,
    enumerated).  The fabric's UTS and BPC runs keep no checksum (``-``).
    """
    from ..mp.driver import WORKLOADS, run_mp_serve
    from ..runtime.arrivals import parse_arrival_spec, serving_checksum
    from .sweep import run_cell

    npes, spec, horizon, seed = 4, "poisson:1000000", 2e-4, 7
    trace = parse_arrival_spec(spec, horizon, seed)
    served = serving_checksum(range(trace.emitted))
    rows = []
    for label, cell, name in (("UTS test_tiny", "test_tiny", "uts"),
                              ("BPC", "bpc", "bpc")):
        tasks, checksum = WORKLOADS[name](0, cell).expected()
        for impl in ("sws", "sdc"):
            fabric = run_cell(cell, impl, npes, seed)
            mp = run_cell(cell, impl, npes, seed, "mp")
            rows.append([label, impl.upper(), fabric.total_tasks,
                         mp.total_tasks, tasks, "-", f"{mp.checksum:#018x}",
                         f"{checksum:#018x}"])
    for impl in ("sws", "sdc"):
        fabric = run_serve(npes, impl=impl, arrival=trace,
                           duration_s=horizon, seed=seed).serving
        mp = run_mp_serve(trace, impl=impl, npes=npes, seed=seed).serving
        rows.append([f"serving {spec}", impl.upper(), fabric.completed,
                     mp.completed, trace.emitted, f"{fabric.checksum:#018x}",
                     f"{mp.checksum:#018x}", f"{served:#018x}"])
    return ExperimentResult(
        title=f"One run record across backends ({npes} PEs)",
        headers=["workload", "impl", "fabric tasks", "mp tasks",
                 "oracle tasks", "fabric checksum", "mp checksum",
                 "oracle checksum"],
        rows=rows,
        notes=[f"serving trace: {spec} over {horizon * 1e6:g} us of "
               f"arrivals, seed {seed}; mp replays its times, and no "
               "latency or host time is rendered"],
    )
