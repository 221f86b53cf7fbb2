"""Property suite for the open-system arrival processes.

The serving regime's determinism contract (docs/serving.md) rests on the
arrival traces: a fixed spec + seed must produce bit-identical integer
arrival ticks on every run — including when the construction happens in
a different process, which is how the sweep runner fans serving bench
scenarios across a pool.  Hypothesis drives the spec space; the
assertions pin exactly the properties the serving layer consumes:

* bit-identical traces for a fixed seed, across fresh constructions and
  across serial / process-pool execution;
* sorted ticks with non-negative inter-arrival gaps, clipped to
  ``[0, duration)``;
* the process's own ledger (``emitted``) matches the trace it hands out;
* bursty / diurnal intensity envelopes stay inside the declared
  ``rate_bounds`` and the realized arrival mass stays inside the
  envelope's integral bounds.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.engine import TICKS_PER_SECOND
from repro.runtime.arrivals import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    FixedRateArrivals,
    PoissonArrivals,
    parse_arrival_spec,
    serving_checksum,
)

pytestmark = pytest.mark.serving

# Spec space: every kind at rates/durations that keep traces small
# (hundreds of arrivals) so the suite stays fast.
seeds = st.integers(0, 2**32 - 1)
durations = st.floats(1e-4, 2e-3)
rates = st.floats(1e4, 2e6)


@st.composite
def arrival_specs(draw):
    kind = draw(st.sampled_from(ARRIVAL_KINDS))
    if kind in ("poisson", "fixed"):
        return f"{kind}:{draw(rates)}"
    lo = draw(rates)
    hi = lo * draw(st.floats(1.0, 8.0))
    return f"{kind}:{lo},{hi}"


def _trace_of(spec: str, duration: float, seed: int) -> tuple[int, ...]:
    return parse_arrival_spec(spec, duration, seed).trace()


@given(spec=arrival_specs(), duration=durations, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_trace_deterministic_across_constructions(spec, duration, seed):
    """Two independent constructions emit bit-identical traces."""
    a = parse_arrival_spec(spec, duration, seed)
    b = parse_arrival_spec(spec, duration, seed)
    assert a.trace() == b.trace()
    # The cache hands out the same object; a re-read never mutates.
    assert a.trace() is a.trace()
    assert a.emitted == len(b.trace())


@given(spec=arrival_specs(), duration=durations, seed=seeds)
@settings(max_examples=60, deadline=None)
def test_trace_sorted_nonneg_gaps_clipped(spec, duration, seed):
    """Ticks are sorted ints with non-negative gaps inside [0, duration)."""
    process = parse_arrival_spec(spec, duration, seed)
    trace = process.trace()
    horizon = process.duration_ticks
    prev = 0
    for tick in trace:
        assert isinstance(tick, int)
        assert 0 <= tick < horizon
        assert tick - prev >= 0
        prev = tick


@given(spec=arrival_specs(), duration=durations, seed=seeds)
@settings(max_examples=40, deadline=None)
def test_ledger_matches_trace(spec, duration, seed):
    """``emitted`` is the process's own ledger for its trace."""
    process = parse_arrival_spec(spec, duration, seed)
    assert process.emitted == len(process.trace())
    lo, hi = process.rate_bounds()
    assert 0 < lo <= hi
    for t in (0.0, duration / 3, duration * 0.9):
        assert lo <= process.intensity(t) <= hi + 1e-9


def test_trace_identical_serial_vs_process_pool():
    """The sweep contract: pool workers reconstruct the same trace."""
    cases = [
        ("poisson:500000", 1e-3, 7),
        ("bursty:100000,1500000", 1e-3, 42),
        ("diurnal:200000,900000", 1e-3, 3),
        ("fixed:333333", 1e-3, 0),
    ]
    serial = [_trace_of(*c) for c in cases]
    with ProcessPoolExecutor(max_workers=2) as pool:
        pooled = list(pool.map(_trace_of, *zip(*cases)))
    assert serial == pooled


def test_fixed_rate_gaps_exactly_equal():
    process = FixedRateArrivals(250000, 1e-3)
    trace = process.trace()
    gaps = {b - a for a, b in zip(trace, trace[1:])}
    assert gaps == {process.spacing_ticks}


@given(seed=seeds, duration=st.floats(5e-4, 2e-3))
@settings(max_examples=30, deadline=None)
def test_bursty_envelope_within_declared_bounds(seed, duration):
    """Every MMPP phase runs at one of the two declared rates, the
    phases tile [0, duration), and the realized arrival count stays
    within the envelope's integral (with Poisson slack)."""
    process = BurstyArrivals(2e5, 2e6, duration, seed)
    lo, hi = process.rate_bounds()
    phases = process.phases()
    assert phases[0][0] == 0.0
    assert phases[-1][1] == pytest.approx(duration)
    expected_mass = 0.0
    for (start, end, rate), nxt in zip(phases, phases[1:] + [None]):
        assert rate in (lo, hi)
        assert end >= start
        if nxt is not None:
            assert nxt[0] == end  # no gaps, no overlap
        expected_mass += (end - start) * rate
    # 6-sigma Poisson slack around the integrated intensity.
    slack = 6.0 * expected_mass**0.5 + 6.0
    assert abs(process.emitted - expected_mass) <= slack


@given(seed=seeds, duration=st.floats(5e-4, 2e-3))
@settings(max_examples=30, deadline=None)
def test_diurnal_envelope_within_declared_bounds(seed, duration):
    """λ(t) stays inside [base, peak]; thinning respects the integral."""
    process = DiurnalArrivals(1e5, 1.2e6, duration, seed)
    lo, hi = process.rate_bounds()
    steps = 200
    mass = 0.0
    for i in range(steps):
        t = (i + 0.5) * duration / steps
        lam = process.intensity(t)
        assert lo - 1e-9 <= lam <= hi + 1e-9
        mass += lam * duration / steps
    slack = 6.0 * mass**0.5 + 6.0
    assert abs(process.emitted - mass) <= slack
    # Trough at t=0, peak at period/2 — the compressed-day shape.
    assert process.intensity(0.0) == pytest.approx(lo)
    assert process.intensity(process.period / 2) == pytest.approx(hi)


@given(seqs=st.lists(st.integers(0, 2**32 - 1), unique=True))
@settings(max_examples=50, deadline=None)
def test_serving_checksum_order_independent(seqs):
    shuffled = list(seqs)
    random.Random(1).shuffle(shuffled)
    assert serving_checksum(seqs) == serving_checksum(shuffled)
    if seqs:
        # Duplicate-sensitive: doubling one seq cancels its contribution.
        assert serving_checksum(seqs + [seqs[0]]) == serving_checksum(seqs[1:])


# ----------------------------------------------------------------------
# spec parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [
    "poisson", "poisson:", "poisson:abc", "warp:100", "bursty:100",
    "diurnal:100", "bursty:1,2,3", "fixed:0", "poisson:-5",
])
def test_bad_arrival_specs_rejected(bad):
    with pytest.raises(ValueError):
        parse_arrival_spec(bad, 1e-3, 0)


def test_trace_uses_femtosecond_ticks():
    """One arrival per 100us at tick granularity TICKS_PER_SECOND."""
    process = FixedRateArrivals(10000, 1e-3)
    assert process.spacing_ticks == TICKS_PER_SECOND // 10000
    assert process.emitted == 10
