"""Property-based conservation tests: random steal/release/acquire
interleavings must never lose or duplicate a task, on either queue."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.engine import Delay

from .conftest import make_system, rec, rec_id, run_procs

# A scenario: per-thief start delays (us) and steal attempt counts, plus
# owner management actions between waves.
scenario = st.fixed_dictionaries(
    {
        "ntasks": st.integers(4, 120),
        "thieves": st.lists(
            st.tuples(
                st.floats(0.0, 5.0),     # start delay in microseconds
                st.integers(1, 6),       # steal attempts
            ),
            min_size=1,
            max_size=4,
        ),
        "owner_acquires": st.integers(0, 2),
        "owner_dequeues": st.integers(0, 30),
    }
)


def _run_scenario(impl: str, sc: dict) -> None:
    npes = len(sc["thieves"]) + 1
    ctx, sys_ = make_system(impl, npes=npes, qsize=512)
    owner_q = sys_.handle(0)
    for i in range(sc["ntasks"]):
        owner_q.enqueue(rec(i))

    stolen: list[int] = []
    kept: list[int] = []

    def owner():
        yield from owner_q.release()
        yield Delay(2e-6)
        for _ in range(sc["owner_acquires"]):
            yield from owner_q.acquire()
            yield Delay(1e-6)
        for _ in range(sc["owner_dequeues"]):
            r = owner_q.dequeue()
            if r is None:
                break
            kept.append(rec_id(r))
        # Wait out all thief traffic, then drain everything left.
        yield Delay(1.0)
        owner_q.progress()
        while True:
            got = yield from owner_q.acquire()
            if not got:
                break
            while True:
                r = owner_q.dequeue()
                if r is None:
                    break
                kept.append(rec_id(r))
        while True:
            r = owner_q.dequeue()
            if r is None:
                break
            kept.append(rec_id(r))
        owner_q.progress()
        owner_q.invariants()

    def thief(rank, delay_us, attempts):
        q = sys_.handle(rank)
        yield Delay(delay_us * 1e-6)
        for _ in range(attempts):
            r = yield from q.steal(0)
            if r.success:
                stolen.extend(rec_id(x) for x in r.records)
        yield q.pe.quiet()

    gens = [owner()]
    for idx, (d, n) in enumerate(sc["thieves"], start=1):
        gens.append(thief(idx, d, n))
    run_procs(ctx, *gens)

    everything = sorted(stolen + kept)
    assert everything == list(range(sc["ntasks"])), (
        f"lost/dup tasks: stolen={sorted(stolen)} kept={sorted(kept)}"
    )


@given(scenario)
@settings(max_examples=60, deadline=None)
def test_sws_conserves_tasks(sc):
    _run_scenario("sws", sc)


@given(scenario)
@settings(max_examples=60, deadline=None)
def test_sdc_conserves_tasks(sc):
    _run_scenario("sdc", sc)


@given(scenario)
@settings(max_examples=30, deadline=None)
def test_implementations_agree_on_totals(sc):
    """Same scenario on both queues: total tasks conserved identically.

    (Steal volumes may differ — SDC thieves re-halve the live shared
    count while SWS follows the precomputed schedule — but conservation
    must hold for both.)"""
    _run_scenario("sws", sc)
    _run_scenario("sdc", sc)
