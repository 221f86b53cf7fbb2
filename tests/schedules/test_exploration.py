"""Exploration sweeps, bit-identity, replay, DFS enumeration, traces.

The load-bearing guarantees:

* every explored schedule of the healthy protocol is oracle-clean —
  sweeping seeds x policies x workloads over all three queue designs;
* attaching the default (fixed) scheduler is bit-identical to no
  scheduler at all (the reproduction's timing results stay intact);
* a recorded trace replays bit-identically, across the strictest
  validation (ready-set widths), and diverging replays are caught;
* bounded DFS actually enumerates distinct same-time orderings.
"""

import pytest

from repro.analysis.explore import (
    WORKLOADS,
    build_pool,
    explore,
    pool_factory,
    replay_trace,
    run_once,
)
from repro.fabric.scheduler import (
    DfsScheduler,
    ReplayScheduler,
    ScheduleDivergence,
    ScheduleTrace,
    dfs_successor,
    make_scheduler,
)
from repro.runtime.pool import IMPLEMENTATIONS

pytestmark = pytest.mark.schedules


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
@pytest.mark.parametrize("policy", ["random", "pct"])
def test_sweep_oracle_clean(workload, impl, policy):
    report = explore(workload, impl, policy=policy, seeds=range(10))
    assert report.clean, report.render()
    assert report.runs == 10
    # The sweep must actually exercise choice: a workload with no
    # same-time collisions would be vacuous.
    assert report.decision_points > 0


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_fixed_scheduler_bit_identical(impl):
    """The fixed policy (and the armed oracle) must not perturb runs."""
    base = build_pool("flat", impl, scheduler=None, oracle=False)
    ref = base.run()
    fixed = build_pool("flat", impl, scheduler=make_scheduler("fixed"))
    got = fixed.run()
    assert got.runtime == ref.runtime
    assert got.comm == ref.comm
    assert [w.tasks_executed for w in got.workers] == [
        w.tasks_executed for w in ref.workers
    ]
    assert [w.steals_ok for w in got.workers] == [
        w.steals_ok for w in ref.workers
    ]
    assert fixed.oracle is not None and fixed.oracle.checks_passed > 0


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_replay_reproduces_random_run(impl):
    factory = pool_factory("tree", impl)
    first = run_once(factory, make_scheduler("random", seed=11))
    assert first.ok
    assert first.trace.choices, "no decision points recorded"
    replayed = run_once(factory, first.trace.replayer(strict=True))
    assert replayed.ok
    assert replayed.events == first.events
    assert replayed.runtime == first.runtime
    assert replayed.trace.choices == first.trace.choices
    assert replayed.trace.widths == first.trace.widths


def test_distinct_seeds_explore_distinct_schedules():
    factory = pool_factory("flat", "sws")
    traces = [
        run_once(factory, make_scheduler("random", seed=s)).trace.choices
        for s in range(4)
    ]
    assert len({tuple(t) for t in traces}) > 1


def test_dfs_enumerates_distinct_orderings():
    report = explore("flat", "sws", policy="dfs", dfs_depth=3, max_runs=30)
    assert report.clean, report.render()
    assert report.runs > 1, "DFS found no branch points"


def test_dfs_successor_enumeration():
    # Widths (2, 3): DFS order is 00,01,02,10,11,12 then exhausted.
    seen = []
    prefix = []
    while prefix is not None and len(seen) < 10:
        # Simulate a run that met widths 2 then 3 (prefix shorter than
        # the decision sequence extends with default choice 0).
        choices = []
        for depth, width in enumerate((2, 3)):
            pick = prefix[depth] if depth < len(prefix) else 0
            choices.append((pick, width))
        seen.append(tuple(c for c, _ in choices))
        prefix = dfs_successor(choices, max_depth=2)
    assert seen == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
    assert dfs_successor([(1, 2), (2, 3)], max_depth=2) is None
    # The bound really bounds: deeper choices are never incremented.
    assert dfs_successor([(0, 2), (0, 5)], max_depth=1) == [1]


def test_dfs_scheduler_clamps_shorter_ready_sets():
    sched = DfsScheduler(prefix=[5], max_depth=4)
    entries = [(0.0, i, lambda: None, None) for i in range(2)]
    assert sched.choose(0.0, entries) == 1  # clamped to width - 1


def test_trace_json_roundtrip():
    trace = ScheduleTrace(
        policy="random", seed=9, choices=[0, 2, 1], widths=[1, 3, 2],
        meta={"workload": "flat", "impl": "sws", "check": "double-claim"},
    )
    back = ScheduleTrace.from_json(trace.to_json())
    assert back == trace
    with pytest.raises(ValueError, match="not a schedule trace"):
        ScheduleTrace.from_json('{"format": "something/else"}')


def test_strict_replay_detects_divergence():
    factory = pool_factory("flat", "sws")
    first = run_once(factory, make_scheduler("random", seed=2))
    assert first.ok and first.trace.widths
    tampered = ScheduleTrace(
        policy=first.trace.policy,
        seed=first.trace.seed,
        choices=first.trace.choices,
        widths=[w + 1 for w in first.trace.widths],
        meta={"workload": "flat", "impl": "sws"},
    )
    with pytest.raises(ScheduleDivergence):
        replay_trace(tampered, strict=True)
    # Non-strict replay of the same tampered trace proceeds fine.
    assert replay_trace(tampered, strict=False).ok


def test_replay_scheduler_falls_back_to_default_past_trace():
    sched = ReplayScheduler([1])
    entries = [(0.0, i, lambda: None, None) for i in range(3)]
    assert sched.choose(0.0, entries) == 1
    assert sched.choose(0.0, entries) == 0  # past the recorded prefix


def test_pool_accepts_policy_name():
    pool = build_pool("flat", "sws", scheduler=None)
    assert pool.scheduler is None
    pool2 = build_pool("flat", "sws", scheduler=make_scheduler("pct", seed=3))
    assert pool2.ctx.engine.scheduler is pool2.scheduler


def test_scheduler_choice_validation():
    class Broken(DfsScheduler):
        def _pick(self, now, ready):
            return len(ready)  # out of range

    entries = [(0.0, i, lambda: None, None) for i in range(2)]
    with pytest.raises(ValueError, match="chose 2 of 2"):
        Broken().choose(0.0, entries)


def test_make_scheduler_rejects_unknown_policy():
    with pytest.raises(ValueError, match="unknown scheduler policy"):
        make_scheduler("chaotic")
