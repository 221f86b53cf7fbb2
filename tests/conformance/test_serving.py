"""Cross-backend serving conformance: fabric ≡ mp.

The arrival trace for a fixed (spec, duration, seed) is bit-identical on
every backend (:mod:`repro.runtime.arrivals` materializes it from a
private RNG), so the *completed-task set* must be identical too: every
backend injects the same ``n`` arrivals and must complete exactly those,
which the order-independent ``serving_checksum`` fingerprints.  Timing
differs wildly across substrates — virtual ticks vs real nanoseconds —
but the set does not, for both the SWS and SDC protocols.

Run alone with::

    pytest -m conformance tests/conformance/test_serving.py
"""

from __future__ import annotations

import pytest

from repro.runtime.arrivals import parse_arrival_spec, serving_checksum

pytestmark = [
    pytest.mark.conformance,
    pytest.mark.serving,
    pytest.mark.timeout(240),
]

ARRIVAL = "poisson:2000000"
DURATION = 2e-4
SEED = 7
IMPLS = ("sws", "sdc")


def serve_fabric(impl: str) -> dict:
    from repro.runtime.serving import run_serve

    stats = run_serve(3, impl=impl, arrival=ARRIVAL, duration_s=DURATION,
                      seed=SEED)
    s = stats.serving
    return {"emitted": s.emitted, "completed": s.completed,
            "checksum": s.checksum}


def serve_mp(impl: str) -> dict:
    from repro.mp.driver import run_mp_serve

    res = run_mp_serve(ARRIVAL, DURATION, impl=impl, npes=3, seed=SEED,
                       pace_s=1e-4, nbatches=8)
    s = res.serving
    return {"emitted": s.emitted, "completed": s.completed,
            "checksum": s.checksum}


BACKENDS = {
    "fabric": serve_fabric,
    "mp": serve_mp,
}


@pytest.fixture(scope="module")
def results():
    """One serving run per backend per impl, shared across the module."""
    return {
        (backend, impl): run(impl)
        for backend, run in BACKENDS.items()
        for impl in IMPLS
    }


def test_trace_is_backend_independent():
    """The trace itself is a pure function of (spec, duration, seed)."""
    a = parse_arrival_spec(ARRIVAL, DURATION, SEED).trace()
    b = parse_arrival_spec(ARRIVAL, DURATION, SEED).trace()
    assert a == b and len(a) > 0


@pytest.mark.parametrize("impl", IMPLS)
def test_every_backend_completes_the_full_trace(results, impl):
    expected = parse_arrival_spec(ARRIVAL, DURATION, SEED).emitted
    for backend in BACKENDS:
        r = results[(backend, impl)]
        assert r["emitted"] == expected, (backend, impl)
        assert r["completed"] == expected, (backend, impl)


@pytest.mark.parametrize("impl", IMPLS)
def test_checksums_identical_across_backends(results, impl):
    """fabric ≡ mp: the same task set completed exactly once."""
    expected = serving_checksum(
        range(parse_arrival_spec(ARRIVAL, DURATION, SEED).emitted)
    )
    got = {b: results[(b, impl)]["checksum"] for b in BACKENDS}
    assert got == {b: expected for b in BACKENDS}, got


def test_checksums_identical_across_impls(results):
    """SWS and SDC serve the identical set on every backend."""
    for backend in BACKENDS:
        sws = results[(backend, "sws")]["checksum"]
        sdc = results[(backend, "sdc")]["checksum"]
        assert sws == sdc, backend
