"""Fault-tolerance sweep: SDC vs SWS on a degrading fabric.

Sweeps drop rate and an optional mid-run PE fail-stop and reports the
recovery counters alongside runtime and throughput for both queue
implementations.  The qualitative expectation mirrors the paper's
motivation for fusing the steal into single atomics: SDC's swap-lock
critical section leaves a wider window for a lost message or a dead
lock-holder to stall thieves, so its recovery machinery (lease breaks,
retries) has to work harder than SWS's at the same fault intensity.

Run with ``pytest benchmarks/bench_faults.py -s``.
"""

from repro.fabric.faults import FaultPlan, PEFailure
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task

NPES = 16
NTASKS = 1200
TASK_US = 15e-6
DROP_RATES = (0.0, 0.005, 0.02)
KILL = (PEFailure(pe=5, time=2e-3),)


def run_once(impl, drop_rate, kill):
    registry = TaskRegistry()
    executed = []

    def body(payload, tc):
        executed.append(int.from_bytes(payload[:4], "little"))
        return TaskOutcome(duration=TASK_US)

    leaf = registry.register("leaf", body)
    plan = FaultPlan(
        seed=11,
        drop_rate=drop_rate,
        pe_failures=KILL if kill else (),
    )
    pool = TaskPool(
        npes=NPES, registry=registry, impl=impl,
        fault_plan=plan if plan.active else None, seed=11,
    )
    pool.seed(0, [Task(leaf, payload=i.to_bytes(4, "little")) for i in range(NTASKS)])
    stats = pool.run()
    dup = len(executed) - len(set(executed))
    assert dup == 0, f"{impl}: {dup} duplicate executions"
    return stats, len(set(executed))


def sweep():
    rows = []
    for impl in ("sws", "sdc"):
        for drop in DROP_RATES:
            for kill in (False, True):
                if drop == 0.0 and not kill:
                    continue  # the reliable baseline is every other bench
                stats, unique = run_once(impl, drop, kill)
                s = stats.summary()
                rows.append(
                    {
                        "impl": impl,
                        "drop": drop,
                        "kill": int(kill),
                        "runtime_ms": stats.runtime * 1e3,
                        "executed": unique,
                        "timeouts": s["steal_timeouts"],
                        "retries": s["steal_retries"],
                        "quarantines": s["quarantines"],
                        "abandoned": s["steals_abandoned"],
                        "leases": s["locks_recovered"],
                        "dropped": s["dropped_ops"],
                    }
                )
    return rows


def test_bench_fault_sweep():
    rows = sweep()

    header = (
        f"{'impl':5s} {'drop':>6s} {'kill':>4s} {'ms':>8s} {'exec':>5s} "
        f"{'t/o':>4s} {'retry':>5s} {'quar':>4s} {'aband':>5s} "
        f"{'lease':>5s} {'drops':>5s}"
    )
    print("\n" + header)
    for r in rows:
        print(
            f"{r['impl']:5s} {r['drop']:6.3f} {r['kill']:4d} "
            f"{r['runtime_ms']:8.3f} {r['executed']:5d} {r['timeouts']:4d} "
            f"{r['retries']:5d} {r['quarantines']:4d} {r['abandoned']:5d} "
            f"{r['leases']:5d} {r['dropped']:5d}"
        )

    by = {(r["impl"], r["drop"], r["kill"]): r for r in rows}
    for impl in ("sws", "sdc"):
        # No PE death and a fully-alive fabric: exactly-once, always.
        for drop in DROP_RATES[1:]:
            assert by[(impl, drop, 0)]["executed"] == NTASKS
        # Losing a PE and its queue can only lose tasks, never duplicate
        # or invent them.
        assert by[(impl, DROP_RATES[-1], 1)]["executed"] <= NTASKS
        # The recovery path was actually exercised at the heavy setting.
        heavy = by[(impl, DROP_RATES[-1], 1)]
        assert heavy["timeouts"] > 0 and heavy["quarantines"] > 0
    # Only SDC has a lock to recover.
    assert by[("sws", DROP_RATES[-1], 1)]["leases"] == 0
