"""Tests for the simulated NIC: timing, semantics, serialization, quiet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.engine import Delay
from repro.fabric.errors import SimulationError
from repro.fabric.latency import LatencyModel
from repro.shmem.api import ShmemCtx

# Round numbers so expected completion times are easy to verify by hand.
LAT = LatencyModel(
    alpha_sw=1e-6,
    half_rtt_inter=10e-6,
    half_rtt_intra=2e-6,
    beta=1e-9,
    amo_process=0.5e-6,
    get_process=0.25e-6,
    local_penalty=0.5,
)


def make_ctx(npes=2, pes_per_node=1):
    """Two PEs on distinct nodes by default (inter-node latencies)."""
    ctx = ShmemCtx(npes, latency=LAT, pes_per_node=pes_per_node)
    ctx.heap.alloc_words("m", 8)
    ctx.heap.alloc_bytes("d", 4096)
    return ctx


def run_proc(ctx, gen):
    out = {}

    def wrapper():
        out["result"] = yield from gen
        out["t"] = ctx.now

    ctx.engine.spawn(wrapper(), "p")
    ctx.run()
    return out["result"], out["t"]


class TestFetchAmoTiming:
    def test_fetch_add_round_trip_time(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            old = yield pe.atomic_fetch_add(1, "m", 0, 7)
            return old

        old, t = run_proc(ctx, body())
        assert old == 0
        assert ctx.heap.load(1, "m", 0) == 7
        # alpha + one_way + amo_process + one_way
        assert t == pytest.approx(1e-6 + 10e-6 + 0.5e-6 + 10e-6)

    def test_intra_node_faster(self):
        ctx = make_ctx(pes_per_node=2)  # both PEs share node 0
        pe = ctx.pe(0)

        def body():
            yield pe.atomic_fetch_add(1, "m", 0, 1)

        _, t = run_proc(ctx, body())
        assert t == pytest.approx(1e-6 + 2e-6 + 0.5e-6 + 2e-6)

    def test_swap_and_cas_values(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        ctx.heap.store(1, "m", 2, 5)

        def body():
            a = yield pe.atomic_swap(1, "m", 2, 9)
            b = yield pe.atomic_compare_swap(1, "m", 2, 9, 11)
            c = yield pe.atomic_compare_swap(1, "m", 2, 999, 13)
            d = yield pe.atomic_fetch(1, "m", 2)
            return (a, b, c, d)

        (a, b, c, d), _ = run_proc(ctx, body())
        assert (a, b, c, d) == (5, 9, 11, 11)


class TestAmoSerialization:
    def test_concurrent_amos_serialize_at_target(self):
        """N simultaneous fetch-adds yield N distinct old values, and the
        responses space out by the target NIC's amo_process time."""
        ctx = make_ctx(npes=5)
        olds, times = [], []

        def thief(rank):
            pe = ctx.pe(rank)
            old = yield pe.atomic_fetch_add(0, "m", 0, 1)
            olds.append(old)
            times.append(ctx.now)

        for r in range(1, 5):
            ctx.engine.spawn(thief(r), f"t{r}")
        ctx.run()
        assert sorted(olds) == [0, 1, 2, 3]
        assert ctx.heap.load(0, "m", 0) == 4
        ts = sorted(times)
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        for g in gaps:
            assert g == pytest.approx(LAT.amo_process)


class TestGets:
    def test_get_word_timing_includes_payload(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        ctx.heap.store(1, "m", 1, 1234)

        def body():
            v = yield pe.get_word(1, "m", 1)
            return v

        v, t = run_proc(ctx, body())
        assert v == 1234
        expected = 1e-6 + 10e-6 + 0.25e-6 + 10e-6 + 8 * 1e-9
        assert t == pytest.approx(expected)

    def test_get_bytes_payload_scales(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        ctx.heap.write_bytes(1, "d", 0, bytes(range(100)))

        def body(n):
            data = yield pe.get_bytes(1, "d", 0, n)
            return data

        d1, t1 = run_proc(ctx, body(10))
        ctx2 = make_ctx()
        ctx2.heap.write_bytes(1, "d", 0, bytes(range(100)))
        pe2 = ctx2.pe(0)

        def body2():
            data = yield pe2.get_bytes(1, "d", 0, 100)
            return data

        d2, t2 = run_proc(ctx2, body2())
        assert d1 == bytes(range(10))
        assert d2 == bytes(range(100))
        assert t2 - t1 == pytest.approx(90 * 1e-9)

    def test_get_words_bulk(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        ctx.heap.store_words(1, "m", 0, [3, 1, 4, 1, 5])

        def body():
            words = yield pe.get_words(1, "m", 0, 5)
            return words

        words, _ = run_proc(ctx, body())
        assert words == [3, 1, 4, 1, 5]


class TestPuts:
    def test_blocking_put_acked(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            yield pe.put_word(1, "m", 3, 77)

        _, t = run_proc(ctx, body())
        assert ctx.heap.load(1, "m", 3) == 77
        expected = 1e-6 + 8e-9 + 10e-6 + 10e-6
        assert t == pytest.approx(expected)

    def test_nonblocking_put_returns_after_injection(self):
        ctx = make_ctx()
        pe = ctx.pe(0)
        seen = {}

        def body():
            yield pe.put_word_nb(1, "m", 3, 55)
            seen["t_return"] = ctx.now
            seen["visible_at_return"] = ctx.heap.load(1, "m", 3)
            yield pe.quiet()
            seen["t_quiet"] = ctx.now
            seen["visible_after_quiet"] = ctx.heap.load(1, "m", 3)

        ctx.engine.spawn(body(), "p")
        ctx.run()
        assert seen["t_return"] == pytest.approx(1e-6 + 8e-9)
        assert seen["visible_at_return"] == 0  # still in flight
        assert seen["visible_after_quiet"] == 55
        assert seen["t_quiet"] >= 1e-6 + 8e-9 + 10e-6

    def test_put_words_bulk(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            yield pe.put_words(1, "m", 2, [9, 8, 7])

        run_proc(ctx, body())
        assert ctx.heap.load_words(1, "m", 2, 3) == [9, 8, 7]

    def test_put_bytes_nb_then_quiet(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            yield pe.put_bytes_nb(1, "d", 5, b"xyz")
            yield pe.quiet()

        run_proc(ctx, body())
        assert ctx.heap.read_bytes(1, "d", 5, 3) == b"xyz"


class TestQuiet:
    def test_quiet_with_nothing_outstanding_is_instant(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            yield pe.quiet()

        _, t = run_proc(ctx, body())
        assert t == 0.0

    def test_quiet_waits_for_all_outstanding(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            for i in range(4):
                yield pe.atomic_add_nb(1, "m", 0, 1)
            assert ctx.nic.pending_ops(0) > 0
            yield pe.quiet()
            assert ctx.nic.pending_ops(0) == 0

        run_proc(ctx, body())
        assert ctx.heap.load(1, "m", 0) == 4

    def test_quiet_per_pe_isolation(self):
        ctx = make_ctx(npes=3)
        order = []

        def sender():
            pe = ctx.pe(0)
            yield pe.atomic_add_nb(2, "m", 0, 1)
            yield pe.quiet()
            order.append(("sender", ctx.now))

        def bystander():
            pe = ctx.pe(1)
            yield pe.quiet()  # nothing outstanding for PE 1
            order.append(("bystander", ctx.now))

        ctx.engine.spawn(sender(), "s")
        ctx.engine.spawn(bystander(), "b")
        ctx.run()
        assert order[0][0] == "bystander"
        assert order[0][1] == 0.0


class TestBarrier:
    def test_barrier_releases_all_together(self):
        ctx = make_ctx(npes=4)
        times = []

        def proc(rank, pre_delay):
            pe = ctx.pe(rank)
            yield Delay(pre_delay)
            yield pe.barrier_all()
            times.append(ctx.now)

        for r, d in enumerate([0.0, 1e-6, 5e-6, 3e-6]):
            ctx.engine.spawn(proc(r, d), f"p{r}")
        ctx.run()
        assert len(set(times)) == 1
        assert times[0] > 5e-6  # after the last arrival plus barrier cost


class TestMetricsCounting:
    def test_every_op_recorded(self):
        ctx = make_ctx()
        pe = ctx.pe(0)

        def body():
            yield pe.atomic_fetch_add(1, "m", 0, 1)
            yield pe.get_word(1, "m", 0)
            yield pe.put_word(1, "m", 0, 2)
            yield pe.atomic_add_nb(1, "m", 0, 1)
            yield pe.quiet()

        run_proc(ctx, body())
        snap = ctx.metrics.snapshot()
        assert snap["amo_fetch_add"] == 1
        assert snap["get"] == 1
        assert snap["put"] == 1
        assert snap["amo_add_nb"] == 1
        assert snap["total"] == 4
        assert snap["blocking"] == 3


class TestOutstandingAccounting:
    """Property test: quiet()/_outstanding bookkeeping never underflows
    and always drains, for any interleaving of non-blocking ops — on a
    reliable fabric and under fault injection (where dropped descriptors
    must still retire locally)."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["put_nb", "amo_add_nb", "put_signal_nb", "quiet"]),
                st.integers(min_value=1, max_value=2),  # target PE
                st.floats(min_value=0.0, max_value=30e-6),  # pre-op think time
            ),
            min_size=1,
            max_size=24,
        ),
        drop_rate=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_outstanding_never_underflows_and_always_drains(
        self, ops, drop_rate, seed
    ):
        from repro.fabric.faults import FaultPlan

        plan = FaultPlan(seed=seed, drop_rate=drop_rate) if drop_rate else None
        ctx = ShmemCtx(npes=3, latency=LAT, pes_per_node=1, fault_plan=plan)
        ctx.heap.alloc_words("m", 8)
        ctx.heap.alloc_bytes("d", 4096)
        pe = ctx.pe(0)
        done = []

        def body():
            for kind, target, think in ops:
                if think:
                    yield Delay(think)
                if kind == "put_nb":
                    yield pe.put_word_nb(target, "m", 0, 1)
                elif kind == "amo_add_nb":
                    yield pe.atomic_add_nb(target, "m", 1, 1)
                elif kind == "put_signal_nb":
                    yield pe.put_signal_nb(target, "d", 0, b"abcd", "m", 2, 1)
                else:
                    yield pe.quiet()
                # _complete_nb raises SimulationError on underflow, so a
                # mismatched retirement would abort the run here.
                assert ctx.nic.pending_ops(0) >= 0
            yield pe.quiet()  # the final fence must always drain
            done.append(True)

        ctx.engine.spawn(body(), "p")
        ctx.run()
        assert done == [True]
        for rank in range(3):
            assert ctx.nic.pending_ops(rank) == 0


# ----------------------------------------------------------------------
# A pooled op is posted by the process step that issues it
# ----------------------------------------------------------------------
_POOLED_KINDS = {
    "amo_fetch_add": (1,), "amo_swap": (1,), "amo_cas": (0, 1),
    "amo_fetch": (), "get_word": (), "get_words": (2,), "get_bytes": (8,),
}


def _posting_ctx():
    ctx = ShmemCtx(2)
    ctx.heap.alloc_words("w", 4)
    ctx.heap.alloc_bytes("b", 16)
    assert ctx.nic._pooled
    return ctx


def _issue(nic, kind):
    region = "b" if kind == "get_bytes" else "w"
    return getattr(nic, kind)(0, 1, region, 0, *_POOLED_KINDS[kind])


@pytest.mark.parametrize("kind", sorted(_POOLED_KINDS))
def test_pooled_op_outside_a_step_raises(kind):
    """Outside a process step there is no process to resume: the issue
    raises, before a run, after one, and after a step that raised."""
    ctx = _posting_ctx()
    with pytest.raises(SimulationError, match="outside a process step"):
        _issue(ctx.nic, kind)

    def body():
        yield _issue(ctx.nic, kind)
        yield Delay(1e-6)
        raise RuntimeError("boom")

    ctx.engine.spawn(body(), "p")
    with pytest.raises(RuntimeError, match="boom"):
        ctx.run()
    assert ctx.engine.active is None
    with pytest.raises(SimulationError, match="outside a process step"):
        _issue(ctx.nic, kind)
    assert ctx.metrics.total_ops() == 1


def test_two_ops_before_one_yield_is_a_double_resume():
    ctx = _posting_ctx()
    nic = ctx.nic

    def body():
        nic.amo_fetch_add(0, 1, "w", 0, 1)
        yield nic.get_word(0, 1, "w", 0)

    ctx.engine.spawn(body(), "p")
    with pytest.raises(SimulationError, match="double resume of process p"):
        ctx.run()


def test_a_posted_op_must_be_what_the_step_yields():
    ctx = _posting_ctx()

    def posts_then_delays():
        ctx.nic.get_word(0, 1, "w", 0)
        yield Delay(1e-6)

    ctx.engine.spawn(posts_then_delays(), "p")
    with pytest.raises(SimulationError, match="posted a request"):
        ctx.run()

    ctx = _posting_ctx()

    def yields_a_stale_post():
        req = ctx.nic.get_word(0, 1, "w", 0)
        yield req
        yield req  # nothing was posted in this step

    ctx.engine.spawn(yields_a_stale_post(), "p")
    with pytest.raises(SimulationError, match="unsupported request"):
        ctx.run()


def test_a_blocked_process_names_its_posted_op():
    """The deadlock report renders the pooled record lazily."""
    ctx = _posting_ctx()
    seen = []

    def body():
        yield ctx.nic.get_bytes(0, 1, "b", 4, 8)

    proc = ctx.engine.spawn(body(), "p")
    ctx.engine.at(1e-9, lambda: seen.append(str(proc.blocked_on)))
    ctx.run()
    assert seen == ["get -> pe1 b[4:12]B"]
