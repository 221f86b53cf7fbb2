"""Unit + property tests for the streaming quantile sketch.

The serving layer's tail-latency numbers (p50/p99/p999, SLO attainment)
come from :class:`repro.runtime.stats.QuantileSketch`, so two properties
carry all the weight:

* **bounded relative rank error** — for any data set and any quantile,
  the sketch's answer is within relative error γ of the exact order
  statistic (DDSketch's guarantee);
* **exact mergeability** — merging per-PE sketches is lossless: the
  merge of sketches over A and B answers every quantile identically to
  one sketch over A ++ B.  The mp backend depends on this (each PE ships
  its own sketch through the result queue and the parent folds them).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.stats import QuantileSketch, ServingStats

pytestmark = pytest.mark.serving

values = st.floats(
    min_value=1e-3, max_value=1e12, allow_nan=False, allow_infinity=False
)
quantiles = st.sampled_from([0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0])


def exact_quantile(data: list[float], q: float) -> float:
    """The order statistic the sketch approximates (same rank rule)."""
    data = sorted(data)
    rank = min(len(data) - 1, max(0, math.ceil(q * len(data)) - 1))
    return data[rank]


@given(data=st.lists(values, min_size=1, max_size=400), q=quantiles)
@settings(max_examples=120, deadline=None)
def test_quantile_within_relative_rank_error(data, q):
    """Every answer is within γ (plus float fuzz) of the exact statistic."""
    sketch = QuantileSketch(rel_err=0.01)
    for v in data:
        sketch.add(v)
    exact = exact_quantile(data, q)
    got = sketch.quantile(q)
    tol = sketch.gamma * (1 + 1e-9) + 1e-12
    assert abs(got - exact) <= tol * exact


@given(
    a=st.lists(values, min_size=0, max_size=150),
    b=st.lists(values, min_size=0, max_size=150),
)
@settings(max_examples=80, deadline=None)
def test_merge_equals_sketch_of_concatenation(a, b):
    """merge(sketch(A), sketch(B)) ≡ sketch(A ++ B), every quantile."""
    sa, sb, sab = QuantileSketch(), QuantileSketch(), QuantileSketch()
    for v in a:
        sa.add(v)
    for v in b:
        sb.add(v)
    for v in a + b:
        sab.add(v)
    sa.merge(sb)
    assert sa.count == sab.count
    assert sa.buckets == sab.buckets
    assert sa.zero_count == sab.zero_count
    for q in (0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0):
        assert sa.quantile(q) == sab.quantile(q)
    assert sa.mean == pytest.approx(sab.mean)


@given(data=st.lists(values, min_size=0, max_size=200))
@settings(max_examples=60, deadline=None)
def test_roundtrip_through_dict(data):
    """The mp wire format (to_dict/from_dict) is lossless."""
    sketch = QuantileSketch()
    for v in data:
        sketch.add(v)
    back = QuantileSketch.from_dict(sketch.to_dict())
    assert back.count == sketch.count
    assert back.buckets == sketch.buckets
    for q in (0.5, 0.99, 0.999):
        assert back.quantile(q) == sketch.quantile(q)


def test_empty_and_zero_values():
    sketch = QuantileSketch()
    assert sketch.quantile(0.5) == 0.0
    assert sketch.mean == 0.0
    sketch.add(0)
    sketch.add(-3.5)
    sketch.add(10.0)
    # Two of three values are in the zero bucket: p50 is 0.
    assert sketch.quantile(0.5) == 0.0
    assert sketch.quantile(0.999) == pytest.approx(10.0, rel=0.011)
    assert sketch.count == 3


def test_weighted_add_matches_repeats():
    a, b = QuantileSketch(), QuantileSketch()
    for _ in range(7):
        a.add(42.0)
    b.add(42.0, count=7)
    b.add(1.0, count=0)  # no-op
    assert a.buckets == b.buckets and a.count == b.count


def test_merge_rejects_gamma_mismatch():
    with pytest.raises(ValueError):
        QuantileSketch(rel_err=0.01).merge(QuantileSketch(rel_err=0.02))


def test_rel_err_validation():
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            QuantileSketch(rel_err=bad)
    with pytest.raises(ValueError):
        QuantileSketch().quantile(1.5)


def test_percentiles_trio():
    sketch = QuantileSketch()
    for i in range(1, 1001):
        sketch.add(float(i))
    pct = sketch.percentiles()
    assert pct["p50"] == pytest.approx(500, rel=0.011)
    assert pct["p99"] == pytest.approx(990, rel=0.011)
    assert pct["p999"] == pytest.approx(999, rel=0.011)


def test_serving_stats_roundtrip():
    """ServingStats serializes with its sketch (RunStats JSON path)."""
    sketch = QuantileSketch()
    sketch.add(100.0)
    sketch.add(300.0)
    stats = ServingStats(
        emitted=5, injected=4, shed=1, completed=4, slo_ticks=200,
        slo_attained=3,
        checksum=0xDEADBEEF, latency=sketch,
    )
    back = ServingStats.from_dict(stats.to_dict())
    assert back.emitted == 5 and back.shed == 1
    assert back.slo_fraction == pytest.approx(3 / 4)
    assert back.shed_fraction == pytest.approx(1 / 5)
    assert back.checksum == 0xDEADBEEF
    assert back.latency.quantile(0.5) == sketch.quantile(0.5)
    assert back.latency.count == 2
