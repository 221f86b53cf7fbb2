"""Tests for communication accounting."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.errors import FabricTimeoutError
from repro.fabric.faults import FaultPlan
from repro.fabric.metrics import BLOCKING_KINDS, OP_KINDS, FabricMetrics
from repro.shmem.api import ShmemCtx


def test_record_and_totals():
    m = FabricMetrics(2)
    m.record(0.0, 0, 1, "get", 100)
    m.record(1.0, 0, 1, "put", 50)
    m.record(2.0, 1, 0, "amo_fetch_add", 8)
    assert m.total_ops() == 3
    assert m.total_ops("get") == 1
    assert m.total_bytes() == 158
    assert m.total_blocking_ops() == 3


def test_nonblocking_kinds_not_counted_blocking():
    m = FabricMetrics(1)
    m.record(0.0, 0, 0, "put_nb", 8)
    m.record(0.0, 0, 0, "amo_add_nb", 8)
    assert m.total_blocking_ops() == 0
    assert m.total_ops() == 2


def test_unknown_kind_rejected():
    m = FabricMetrics(1)
    with pytest.raises(ValueError):
        m.record(0.0, 0, 0, "telepathy", 8)


def test_per_pe_attribution():
    m = FabricMetrics(3)
    m.record(0.0, 2, 0, "get", 8)
    assert m.ops_of_pe(2)["get"] == 1
    assert m.ops_of_pe(0)["get"] == 0


def test_snapshot_has_all_kinds():
    m = FabricMetrics(1)
    snap = m.snapshot()
    for k in OP_KINDS:
        assert k in snap
    assert snap["total"] == 0


def test_delta():
    m = FabricMetrics(1)
    m.record(0.0, 0, 0, "get", 8)
    before = m.snapshot()
    m.record(1.0, 0, 0, "get", 8)
    m.record(1.0, 0, 0, "amo_swap", 8)
    d = m.delta(before)
    assert d["get"] == 1
    assert d["amo_swap"] == 1
    assert d["total"] == 2


def test_trace_disabled_by_default():
    m = FabricMetrics(1)
    m.record(0.0, 0, 0, "get", 8)
    assert m.trace == []


def test_trace_records_ops():
    m = FabricMetrics(2, trace=True)
    m.record(1.5, 0, 1, "get", 24)
    assert len(m.trace) == 1
    rec = m.trace[0]
    assert (rec.time, rec.initiator, rec.target, rec.kind, rec.nbytes) == (
        1.5, 0, 1, "get", 24,
    )


def test_blocking_kinds_subset_of_op_kinds():
    assert BLOCKING_KINDS <= frozenset(OP_KINDS)


# ----------------------------------------------------------------------
# The flat tally against the per-op trace
# ----------------------------------------------------------------------
#: One op of every kind the NIC issues, as ``(pe, target, n) -> request``.
_OPS = {
    "amo_fetch_add": lambda pe, t, n: pe.atomic_fetch_add(t, "w", n % 4, n),
    "amo_swap": lambda pe, t, n: pe.atomic_swap(t, "w", n % 4, n),
    "amo_cas": lambda pe, t, n: pe.atomic_compare_swap(t, "w", n % 4, 0, n),
    "amo_fetch": lambda pe, t, n: pe.atomic_fetch(t, "w", n % 4),
    "amo_add_nb": lambda pe, t, n: pe.atomic_add_nb(t, "w", n % 4, n),
    "get_word": lambda pe, t, n: pe.get_word(t, "w", n % 4),
    "get_words": lambda pe, t, n: pe.get_words(t, "w", 0, n),
    "get_bytes": lambda pe, t, n: pe.get_bytes(t, "b", 0, 8 * n),
    "put_word": lambda pe, t, n: pe.put_word(t, "w", n % 4, n),
    "put_words": lambda pe, t, n: pe.put_words(t, "w", 0, [n] * n),
    "put_word_nb": lambda pe, t, n: pe.put_word_nb(t, "w", n % 4, n),
    "put_bytes_nb": lambda pe, t, n: pe.put_bytes_nb(t, "b", 0, bytes(n)),
    "put_signal": lambda pe, t, n: pe.put_signal_nb(t, "b", 8, bytes(n), "w", 3, n),
    "quiet": lambda pe, t, n: pe.quiet(),
}
_STEP = st.tuples(st.sampled_from(sorted(_OPS)), st.integers(0, 7), st.integers(1, 4))
_PROGRAMS = st.lists(st.lists(_STEP, max_size=8), min_size=1, max_size=4)
#: The NIC's three paths: pooled, guarded by a timeout, guarded by faults.
_FABRICS = {
    "pooled": {},
    "timeout": {"op_timeout": 1e-3},
    "faults": {"op_timeout": 2e-5,
               "fault_plan": FaultPlan(seed=3, drop_rate=0.2, delay_rate=0.2,
                                       delay_spike=4e-5)},
}


@given(programs=_PROGRAMS, fabric=st.sampled_from(sorted(_FABRICS)))
@settings(max_examples=120, deadline=None)
def test_tally_is_the_trace(programs, fabric):
    """Every op the NIC tallies is the op it traces, on every path: the
    per-kind snapshot and each PE's Counter equal the ones built from
    ``metrics.trace`` (dropped and timed-out ops included)."""
    npes = len(programs)
    ctx = ShmemCtx(npes, pes_per_node=2, trace_comm=True, **_FABRICS[fabric])
    ctx.heap.alloc_words("w", 4)
    ctx.heap.alloc_bytes("b", 64)

    def body(rank, program):
        pe = ctx.pe(rank)
        for op, t, n in program:
            try:
                yield _OPS[op](pe, t % npes, n)
            except FabricTimeoutError:
                pass

    for rank, program in enumerate(programs):
        ctx.engine.spawn(body(rank, program), f"pe{rank}")
    ctx.run()
    m = ctx.metrics
    kinds = Counter(r.kind for r in m.trace)
    snap = m.snapshot()
    assert {k: snap[k] for k in OP_KINDS} == {k: kinds[k] for k in OP_KINDS}
    assert snap["total"] == m.total_ops() == len(m.trace)
    assert snap["blocking"] == sum(kinds[k] for k in BLOCKING_KINDS)
    assert snap["bytes"] == sum(r.nbytes for r in m.trace)
    for pe in range(npes):
        assert m.ops_of_pe(pe) == Counter(r.kind for r in m.trace if r.initiator == pe)
    assert m.ops_by_pe == [m.ops_of_pe(pe) for pe in range(npes)]
