"""Sharded conservative-window simulator: plans, gates, invariants.

Covers the pieces of :mod:`repro.fabric.sharding` and
:mod:`repro.runtime.sharded` that are cheap to check in isolation:

* partition arithmetic (remainder spread, ownership consistency);
* up-front validation of ``--shards``/``--npes`` combinations, both at
  the library layer and through ``python -m repro``'s argument checks;
* the per-shard conservative-window invariants, property-tested over
  randomized cross-shard op programs: no message is delivered below the
  receiving shard's executed past (its ``ran_to`` high-water mark),
  every delivery tick is at least ``send + window`` in the future,
  posted grants never exceed the conservative bound (except the
  documented delivery-only ``ran_to`` floor), and round-elision never
  starves the loop (every round grants at least one shard);
* determinism of the serial transport (same program, same trace);
* deadlock detection across shards;
* the compatibility gates (zero-lookahead latency, non-shardable
  protocols, fault plans).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.errors import DeadlockError
from repro.fabric.latency import ZERO_LATENCY
from repro.fabric.sharding import (
    ShardGroup,
    ShardPlan,
    check_shardable,
    validate_shards,
)
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.sharded import ShardedTaskPool
from repro.runtime.task import Task

from .conftest import TEST_LAT

WINDOW = TEST_LAT.shard_window_ticks()


# ----------------------------------------------------------------------
# partition arithmetic
# ----------------------------------------------------------------------
def test_plan_even_split():
    plan = ShardPlan(8, 4)
    assert [list(plan.pes_of(s)) for s in range(4)] == [
        [0, 1], [2, 3], [4, 5], [6, 7]
    ]


def test_plan_remainder_spread():
    plan = ShardPlan(10, 4)
    assert [plan.local_size(s) for s in range(4)] == [3, 3, 2, 2]


def test_plan_ownership_consistent():
    for npes, nshards in [(5, 2), (7, 3), (16, 5), (3, 3), (9, 1)]:
        plan = ShardPlan(npes, nshards)
        seen = []
        for s in range(nshards):
            block = list(plan.pes_of(s))
            assert block, "no shard may be empty"
            assert all(plan.shard_of(pe) == s for pe in block)
            seen.extend(block)
        assert seen == list(range(npes))


@pytest.mark.parametrize(
    "npes,nshards,msg",
    [
        (0, 1, "npes"),
        (4, 0, "--shards must be >= 1"),
        (4, 8, "exceeds"),
    ],
)
def test_validate_shards_rejects(npes, nshards, msg):
    with pytest.raises(ValueError, match=msg):
        validate_shards(npes, nshards)


def test_check_shardable_rejects_zero_lookahead():
    with pytest.raises(ValueError, match="lookahead"):
        check_shardable(ZERO_LATENCY)


def test_check_shardable_returns_window():
    assert check_shardable(TEST_LAT) == WINDOW > 0


# ----------------------------------------------------------------------
# CLI validation (python -m repro --shards ...)
# ----------------------------------------------------------------------
def test_cli_rejects_shards_over_npes(capsys):
    from repro.__main__ import main

    rc = main(["--protocol", "sws", "--backend", "fabric",
               "--npes", "4", "--shards", "8"])
    assert rc == 2
    assert "exceeds --npes 4" in capsys.readouterr().err


def test_cli_rejects_non_fabric_backend(capsys):
    from repro.__main__ import main

    rc = main(["--protocol", "sws", "--npes", "8", "--shards", "2"])
    assert rc == 2
    assert "fabric" in capsys.readouterr().err


def test_cli_rejects_unshardable_protocol(capsys):
    from repro.__main__ import main

    rc = main(["--protocol", "ff-mult", "--backend", "fabric",
               "--npes", "8", "--shards", "2"])
    assert rc == 2
    assert "cannot run sharded" in capsys.readouterr().err


# ----------------------------------------------------------------------
# pool-level gates
# ----------------------------------------------------------------------
def _leaf_registry() -> TaskRegistry:
    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-6))
    return reg


def test_sharded_pool_gates_ffmult():
    with pytest.raises(ValueError, match="cannot run sharded"):
        ShardedTaskPool(8, _leaf_registry(), 2, impl="ff-mult")


def test_sharded_pool_gates_zero_latency():
    with pytest.raises(ValueError, match="lookahead"):
        ShardedTaskPool(8, _leaf_registry(), 2, impl="sws",
                        latency=ZERO_LATENCY)


def test_single_shard_skips_gates():
    """nshards=1 is the classic path: no window, no shardability gate."""
    pool = ShardedTaskPool(8, _leaf_registry(), 1, impl="ff-mult")
    assert pool.window_ticks == 0


def test_single_shard_matches_plain_pool():
    """nshards=1 must be bit-identical to TaskPool (same engine loop)."""
    from repro.runtime.pool import TaskPool

    def build_stats(sharded: bool):
        reg = _leaf_registry()
        tasks = [Task(reg.id_of("leaf")) for _ in range(60)]
        if sharded:
            pool = ShardedTaskPool(4, reg, 1, impl="sws", oracle=True)
        else:
            pool = TaskPool(4, reg, impl="sws", oracle=True)
        pool.seed_round_robin(tasks)
        return pool.run()

    a, b = build_stats(True), build_stats(False)
    assert a.runtime == b.runtime
    assert [w.__dict__ for w in a.workers] == [w.__dict__ for w in b.workers]
    assert a.comm == b.comm


# ----------------------------------------------------------------------
# lookahead invariant, property-tested over random op programs
# ----------------------------------------------------------------------
OPS = ("add", "addnb", "get", "put", "fetch")


def _run_group(npes: int, nshards: int, programs, use_barrier: bool):
    """Run one randomized ctx-level job; returns (trace, final_now)."""
    group = ShardGroup(npes, nshards, TEST_LAT)
    for ctx in group.ctxs:
        ctx.heap.alloc_words("ctr", npes)

    def body(rank: int, program):
        pe = group.ctx_of(rank).pe(rank)

        def proc():
            for kind, target in program:
                if kind == "add":
                    yield pe.atomic_fetch_add(target, "ctr", rank, 1)
                elif kind == "addnb":
                    yield pe.atomic_add_nb(target, "ctr", rank, 1)
                elif kind == "get":
                    yield pe.get_word(target, "ctr", target)
                elif kind == "put":
                    yield pe.put_word(target, "ctr", rank, rank + 1)
                else:
                    yield pe.atomic_fetch(target, "ctr", target)
            yield pe.quiet()
            if use_barrier:
                yield pe.barrier_all()

        return proc()

    for rank, program in enumerate(programs):
        group.spawn(rank, body(rank, program))
    trace: list = []
    end = group.run(trace=trace)
    return trace, end


@st.composite
def _jobs(draw):
    npes = draw(st.integers(min_value=2, max_value=5))
    nshards = draw(st.integers(min_value=2, max_value=npes))
    programs = [
        draw(st.lists(
            st.tuples(st.sampled_from(OPS),
                      st.integers(min_value=0, max_value=npes - 1)),
            max_size=6,
        ))
        for _ in range(npes)
    ]
    use_barrier = draw(st.booleans())
    return npes, nshards, programs, use_barrier


@settings(max_examples=25, deadline=None)
@given(_jobs())
def test_no_delivery_below_receiver_ran_to(job):
    """A delivered message may never land in the receiving shard's
    executed past: every delivery tick must be at or beyond the
    receiver's ``ran_to`` high-water mark (every event below it has
    already run), else the calendar queue's clock monotonicity breaks."""
    npes, nshards, programs, use_barrier = job
    trace, _ = _run_group(npes, nshards, programs, use_barrier)
    for i, rec in enumerate(trace):
        for dest, opcode, tick, send in rec["deliveries"]:
            assert tick >= rec["ran_to"][dest], (
                f"round {i}: {opcode} delivered to shard {dest} at {tick}, "
                f"below its executed past {rec['ran_to'][dest]}"
            )


@settings(max_examples=25, deadline=None)
@given(_jobs())
def test_delivery_at_least_send_plus_lookahead(job):
    """Every cross-shard message arrives >= one window after it was sent."""
    npes, nshards, programs, use_barrier = job
    trace, _ = _run_group(npes, nshards, programs, use_barrier)
    for rec in trace:
        for dest, opcode, tick, send in rec["deliveries"]:
            if send is None:  # barrier release: no single send tick
                continue
            assert tick >= send + WINDOW, (
                f"{opcode} sent at {send} arrived at {tick}, less than "
                f"the {WINDOW}-tick lookahead later"
            )


@settings(max_examples=25, deadline=None)
@given(_jobs())
def test_grants_respect_conservative_bound(job):
    """Posted limits never exceed the per-shard conservative bound
    ``min(E_j for j != i) + W`` — except via the documented delivery-only
    floor, which re-posts a shard's own monotone ``ran_to`` high-water
    mark (never new execution room beyond what an earlier grant gave)."""
    npes, nshards, programs, use_barrier = job
    trace, _ = _run_group(npes, nshards, programs, use_barrier)
    for i, rec in enumerate(trace):
        for s, limit in rec["limits"].items():
            assert limit <= max(rec["bound"][s], rec["ran_to"][s]), (
                f"round {i}: shard {s} granted {limit} beyond both its "
                f"conservative bound {rec['bound'][s]} and high-water "
                f"mark {rec['ran_to'][s]}"
            )
            assert limit >= rec["ran_to"][s], (
                f"round {i}: shard {s} granted {limit}, regressing below "
                f"its high-water mark {rec['ran_to'][s]}"
            )


@settings(max_examples=25, deadline=None)
@given(_jobs())
def test_elision_never_starves(job):
    """Round-elision skips quiet shards but every round still grants at
    least one shard, and the run terminates (the loop completing at all
    is the termination half of the property)."""
    npes, nshards, programs, use_barrier = job
    trace, _ = _run_group(npes, nshards, programs, use_barrier)
    for i, rec in enumerate(trace):
        assert rec["limits"], f"round {i} granted no shard (stall)"


@settings(max_examples=25, deadline=None)
@given(_jobs())
def test_ran_to_monotone(job):
    """Each shard's reported ``ran_to`` never moves backwards."""
    npes, nshards, programs, use_barrier = job
    trace, _ = _run_group(npes, nshards, programs, use_barrier)
    for s in range(nshards):
        marks = [rec["ran_to"][s] for rec in trace]
        assert marks == sorted(marks), f"shard {s} ran_to regressed"


@settings(max_examples=10, deadline=None)
@given(_jobs())
def test_serial_transport_deterministic(job):
    """Same program, same shard count: identical trace and end time."""
    npes, nshards, programs, use_barrier = job
    t1, end1 = _run_group(npes, nshards, programs, use_barrier)
    t2, end2 = _run_group(npes, nshards, programs, use_barrier)
    assert end1 == end2
    assert t1 == t2


# ----------------------------------------------------------------------
# deadlock detection across shards
# ----------------------------------------------------------------------
def test_cross_shard_deadlock_reported():
    """A PE parked on a barrier no one else joins must be diagnosed,
    not spun on forever."""
    group = ShardGroup(2, 2, TEST_LAT)

    def lonely():
        pe = group.ctx_of(0).pe(0)
        yield pe.barrier_all()

    group.spawn(0, lonely())
    with pytest.raises(DeadlockError, match="live process"):
        group.run()


# ----------------------------------------------------------------------
# one path: shards are stepped in-process, and nothing selects otherwise
# ----------------------------------------------------------------------
@pytest.mark.parametrize("flag", [["--shard-transport", "fork"],
                                  ["--shard-transport=fork"]])
def test_cli_has_no_shard_transport_option(flag):
    """``--shard-transport`` is removed, not deprecated: argparse
    refuses it like any unknown argument (exit 2)."""
    from repro.__main__ import main

    with pytest.raises(SystemExit) as exc:
        main(["--protocol", "sws", "--backend", "fabric", "--npes", "8",
              "--shards", "2", *flag])
    assert exc.value.code == 2


def test_only_the_fleet_starts_processes():
    """PR 13's claim, true of the whole package since the fork shard
    transport left: the only ``.Process(`` call in ``src/`` is the mp
    fleet's."""
    from pathlib import Path

    import repro

    root = Path(repro.__file__).resolve().parent
    callers = sorted(
        str(path.relative_to(root))
        for path in root.rglob("*.py")
        if ".Process(" in path.read_text()
    )
    assert callers == ["mp/fleet.py"]
