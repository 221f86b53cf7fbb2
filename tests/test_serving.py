"""Open-system serving on the fabric backend: determinism, shedding,
elastic membership, the conservation oracle, and termination gating.

The serving regime breaks the closed-batch assumption the rest of the
harness was built on, so these tests pin the new contracts end to end:

* a fixed (spec, seed) pair is **bit-reproducible** — same counts, same
  checksum, same virtual runtime, same latency sketch;
* SWS and SDC complete the **identical task set** for the same trace;
* overload shedding keeps the open-system books exact
  (``emitted == injected + shed``, completed == injected);
* elastic leave/join conserves tasks and hands residue off gracefully;
* a mutated controller that silently drops an arrival is **caught** by
  :func:`repro.runtime.oracle.check_serving_conservation`;
* the termination detectors (ring and tree) do **not** declare
  quiescence inside a long arrival gap — the drain-only assumption fix
  in :mod:`repro.runtime.termination`.
"""

from __future__ import annotations

import pytest

from repro.fabric.engine import to_ticks
from repro.fabric.errors import OracleViolation
from repro.runtime.arrivals import FixedRateArrivals, serving_checksum
from repro.runtime.serving import ServingController, run_serve

pytestmark = [pytest.mark.serving, pytest.mark.timeout(120)]

ARRIVAL = "poisson:2000000"
DURATION = 2e-4


def test_serving_run_bit_reproducible():
    """Same spec + seed twice: identical books, checksum, virtual time."""
    runs = [
        run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=7,
                  slo_s=5e-5)
        for _ in range(2)
    ]
    a, b = (r.serving for r in runs)
    assert runs[0].runtime == runs[1].runtime
    assert (a.emitted, a.injected, a.shed, a.completed) == \
           (b.emitted, b.injected, b.shed, b.completed)
    assert a.checksum == b.checksum
    assert a.latency.buckets == b.latency.buckets
    assert a.slo_attained == b.slo_attained


def test_seed_changes_trace():
    a = run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=7)
    b = run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=8)
    assert a.serving.checksum != b.serving.checksum or \
           a.serving.emitted != b.serving.emitted


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_all_arrivals_complete_and_checksum_pins_set(impl):
    stats = run_serve(3, impl=impl, arrival=ARRIVAL,
                      duration_s=DURATION, seed=7)
    s = stats.serving
    assert s.emitted == s.injected == s.completed
    assert s.shed == 0
    # Every injected seq completed exactly once.
    assert s.checksum == serving_checksum(range(s.emitted))


def test_at_least_once_protocol_is_refused():
    """The serving books are exactly-once by construction (a duplicated
    task's second completion used to die with a bare KeyError, seed 16);
    ff-mult is refused up front, naming its contract."""
    with pytest.raises(ValueError, match="exactly-once.*at-least-once"):
        run_serve(4, impl="ff-mult", arrival="poisson:400000", seed=16)


def test_sws_and_sdc_complete_identical_task_set():
    checksums = {
        impl: run_serve(3, impl=impl, arrival=ARRIVAL, duration_s=DURATION,
                        seed=7).serving.checksum
        for impl in ("sws", "sdc")
    }
    assert checksums["sws"] == checksums["sdc"]


def test_serving_summary_and_json_roundtrip():
    from repro.runtime.stats import RunStats

    stats = run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=7,
                      slo_s=5e-5)
    summary = stats.summary()
    assert summary["arrivals_emitted"] == stats.serving.emitted
    assert "latency_p99" in summary and "slo_fraction" in summary
    back = RunStats.from_json(stats.to_json())
    assert back.serving is not None
    assert back.serving.checksum == stats.serving.checksum
    assert back.serving.latency.count == stats.serving.latency.count


def test_overload_sheds_and_books_stay_exact():
    """A rate far beyond capacity with a shed threshold: the open-system
    ledger balances and the run still drains."""
    stats = run_serve(
        2, arrival="fixed:20000000", duration_s=1e-4, seed=0,
        shed_threshold=8,
    )
    s = stats.serving
    assert s.shed > 0
    assert s.emitted == s.injected + s.shed
    assert s.completed == s.injected
    assert 0 < s.shed_fraction < 1


def test_elastic_plan_conserves_tasks():
    """Leave/join mid-run: identical completed set as the static run."""
    static = run_serve(4, arrival=ARRIVAL, duration_s=DURATION, seed=7)
    elastic = run_serve(
        4, arrival=ARRIVAL, duration_s=DURATION, seed=7,
        elastic="leave:2@0.00005,join:2@0.00012",
    )
    s = elastic.serving
    assert s.leaves == 1 and s.joins == 1
    assert s.emitted == s.completed == static.serving.completed
    assert s.checksum == static.serving.checksum


def test_elastic_seeded_plan_runs_clean():
    stats = run_serve(4, arrival=ARRIVAL, duration_s=DURATION, seed=7,
                      elastic="seeded")
    s = stats.serving
    assert s.emitted == s.completed
    assert s.checksum == serving_checksum(range(s.emitted))
    assert s.leaves == s.joins  # every leave rejoined inside the run


@pytest.mark.parametrize("impl", ["sws", "sdc"])
def test_elastic_checksum_matches_across_impls(impl):
    stats = run_serve(
        4, impl=impl, arrival=ARRIVAL, duration_s=DURATION, seed=7,
        elastic="leave:3@0.00004,join:3@0.00011",
    )
    s = stats.serving
    assert s.checksum == serving_checksum(range(s.emitted))


# ----------------------------------------------------------------------
# mutation: the oracle must catch a silently dropped arrival
# ----------------------------------------------------------------------

class DroppingController(ServingController):
    """Deliberately buggy: silently drops arrival seq 3 (neither injects
    nor sheds it) — the failure mode the open-system oracle exists for."""

    def _inject(self, seq: int) -> None:
        if seq == 3:
            return  # vanish without a ledger entry
        super()._inject(seq)


def test_mutation_dropped_arrival_caught_by_oracle():
    with pytest.raises(OracleViolation) as exc:
        run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=7,
                  controller_factory=DroppingController)
    assert "conservation-open" in str(exc.value)
    assert "silently dropped" in str(exc.value)


class MiscountingController(ServingController):
    """Injects but forgets the spawn bump: unbalances the global books."""

    def _inject(self, seq: int) -> None:
        super()._inject(seq)
        if seq == 2:
            self.pool.workers[0].stats.tasks_spawned -= 1


def test_mutation_miscounted_spawn_caught_by_oracle():
    with pytest.raises(OracleViolation):
        run_serve(3, arrival=ARRIVAL, duration_s=DURATION, seed=7,
                  controller_factory=MiscountingController)


# ----------------------------------------------------------------------
# termination gating: no quiescence inside an arrival gap
# ----------------------------------------------------------------------

@pytest.mark.parametrize("termination", ["ring", "tree"])
def test_detector_waits_out_long_arrival_gap(termination):
    """Two arrivals separated by a gap far longer than any detector
    round: pre-fix, ring/tree would declare quiescence after the first
    task drained; the arrival-source gate must hold the run open."""
    process = FixedRateArrivals(10, 2e-4)  # spacing >> duration: 1 arrival
    # Hand-build a two-arrival trace with a 150us silence in the middle.
    process._trace = (0, to_ticks(1.5e-4))
    stats = run_serve(
        2, arrival=process, duration_s=2e-4, seed=0,
        termination=termination,
    )
    s = stats.serving
    assert s.emitted == 2
    assert s.completed == 2  # the post-gap arrival was NOT abandoned
    assert stats.runtime >= 1.5e-4  # the run outlived the gap


def test_single_pe_serving_terminates():
    stats = run_serve(1, arrival="fixed:100000", duration_s=1e-4, seed=0)
    s = stats.serving
    assert s.emitted == s.completed == 10
