"""End-to-end chaos scenarios: drops, delay spikes, and PE fail-stop.

Every scenario asserts the recovery contract from the fault model:

* the pool terminates on the surviving PEs (no wedge, no deadlock);
* no task is ever executed twice ("timed out implies never applied"
  makes retries duplicate-free);
* on a lossy-but-fully-alive fabric every task executes exactly once;
* when a PE fail-stops, any task that went missing is *attributable* —
  its record bytes are still resident in some PE's task buffer (it died
  with its owner, it was not silently dropped in flight);
* the fault counters in :class:`RunStats` actually count.

Scenarios avoid lifelines/remote-spawn: a task serialized into a push
to a dead inbox would be genuinely lost, which the attribution check
above (deliberately) does not model.
"""

import pytest

from repro.core import sdc_queue, sws_queue
from repro.core.config import QueueConfig
from repro.fabric.faults import FaultPlan, PEFailure
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task

pytestmark = [pytest.mark.chaos, pytest.mark.timeout(300)]

NPES = 8
NTASKS = 400
KILL_PE = 3
KILL_TIME = 1.5e-3

# 8-byte needle embedded in every payload so lost records can be found
# by byte search in the raw task buffers.
def _payload(i):
    return b"TK" + i.to_bytes(4, "little") + b"KT"


def _decode(payload):
    return int.from_bytes(payload[2:6], "little")


def build_pool(impl, plan, lease=None, seed=7):
    registry = TaskRegistry()
    executed = []

    def body(payload, tc):
        executed.append(_decode(payload))
        return TaskOutcome(duration=20e-6)

    leaf = registry.register("leaf", body)
    qc = (
        QueueConfig(sdc_lock_lease=lease)
        if lease is not None
        else QueueConfig()
    )
    pool = TaskPool(
        npes=NPES, registry=registry, impl=impl,
        queue_config=qc, fault_plan=plan, seed=seed,
    )
    pool.seed(0, [Task(leaf, payload=_payload(i)) for i in range(NTASKS)])
    return pool, executed


def task_buffers(pool):
    """Concatenated raw task-region bytes of every PE."""
    region = (
        sdc_queue.TASK_REGION if pool.impl == "sdc" else sws_queue.TASK_REGION
    )
    heap = pool.ctx.heap
    size = pool.queue_config.qsize * pool.queue_config.task_size
    return [heap.read_bytes(rank, region, 0, size) for rank in range(pool.npes)]


DROPS = FaultPlan(seed=3, drop_rate=0.01)
DROPS_AND_KILL = FaultPlan(
    seed=3, drop_rate=0.01,
    pe_failures=(PEFailure(pe=KILL_PE, time=KILL_TIME),),
)

CASES = [("sws", None), ("sdc", 100e-6)]


@pytest.mark.parametrize("impl,lease", CASES)
class TestLossyFabric:
    """1% drop rate, everyone stays alive: exactly-once, with recovery
    visibly exercised."""

    def test_exactly_once_under_drops(self, impl, lease):
        pool, executed = build_pool(impl, DROPS, lease=lease)
        stats = pool.run()
        assert sorted(executed) == list(range(NTASKS))
        assert stats.total_tasks == NTASKS
        # The fabric really was lossy, and the steal path really retried.
        assert stats.faults["dropped_ops"] > 0
        assert stats.total_steal_timeouts > 0
        assert stats.total_steal_retries > 0

    def test_deterministic_replay(self, impl, lease):
        runs = []
        for _ in range(2):
            pool, executed = build_pool(impl, DROPS, lease=lease)
            stats = pool.run()
            runs.append(
                (
                    stats.runtime,
                    stats.faults,
                    stats.total_steals,
                    stats.total_steal_timeouts,
                    sorted(executed),
                    [w.tasks_executed for w in stats.workers],
                )
            )
        assert runs[0] == runs[1]


@pytest.mark.parametrize("impl,lease", CASES)
class TestPeFailStop:
    """1% drops plus one PE dying mid-run: the survivors terminate, no
    duplicates, and every missing task is accounted for."""

    def test_survivors_terminate_and_account_for_every_task(self, impl, lease):
        pool, executed = build_pool(impl, DROPS_AND_KILL, lease=lease)
        stats = pool.run()

        assert stats.faults["pes_killed"] == 1
        assert stats.runtime >= KILL_TIME  # ran on past the failure
        # At-most-once is unconditional.
        assert len(executed) == len(set(executed))
        # The dead PE executed nothing after its failure time.
        dead = stats.workers[KILL_PE]
        assert dead.tasks_executed <= NTASKS

        # Any task that never ran must have died with a PE: its record
        # bytes are still pinned in someone's task buffer.
        missing = set(range(NTASKS)) - set(executed)
        buffers = task_buffers(pool)
        for i in sorted(missing):
            needle = _payload(i)
            assert any(needle in buf for buf in buffers), (
                f"task {i} vanished without a trace"
            )

    def test_recovery_counters_fire(self, impl, lease):
        pool, executed = build_pool(impl, DROPS_AND_KILL, lease=lease)
        stats = pool.run()
        # Steals aimed at the dead PE must have timed out and eventually
        # quarantined it.
        assert stats.total_steal_timeouts > 0
        assert stats.total_quarantines > 0
        assert stats.faults["dead_target_drops"] > 0
        summary = stats.summary()
        assert summary["pes_killed"] == 1
        assert summary["steal_timeouts"] == stats.total_steal_timeouts
        if impl == "sws":  # no lock in its steal, so none to recover
            assert stats.total_locks_recovered == 0


class TestSdcLeaseUnderChaos:
    def test_lease_recovery_happens(self):
        # Heavier drops make thieves time out while holding the victim's
        # swap-lock; the lease is what unwedges the queue.
        plan = FaultPlan(seed=5, drop_rate=0.03)
        pool, executed = build_pool("sdc", plan, lease=100e-6)
        stats = pool.run()
        assert sorted(executed) == list(range(NTASKS))
        assert stats.total_locks_recovered > 0


class TestPlanValidation:
    def test_pe0_failure_rejected(self):
        registry = TaskRegistry()
        registry.register("leaf", lambda p, tc: TaskOutcome(duration=1e-6))
        plan = FaultPlan(pe_failures=(PEFailure(pe=0, time=1e-3),))
        with pytest.raises(ValueError, match="PE 0"):
            TaskPool(npes=4, registry=registry, fault_plan=plan)

    def test_tree_termination_rejected(self):
        registry = TaskRegistry()
        registry.register("leaf", lambda p, tc: TaskOutcome(duration=1e-6))
        with pytest.raises(ValueError, match="ring"):
            TaskPool(
                npes=4, registry=registry, termination="tree",
                fault_plan=FaultPlan(drop_rate=0.01),
            )

    def test_inactive_plan_is_free(self):
        registry = TaskRegistry()
        leaf = registry.register("leaf", lambda p, tc: TaskOutcome(duration=1e-6))
        pool = TaskPool(
            npes=2, registry=registry, termination="tree",
            fault_plan=FaultPlan(),  # inactive: no constraint applies
        )
        assert pool.ctx.faults is None
        pool.seed(0, [Task(leaf) for _ in range(10)])
        stats = pool.run()
        assert stats.total_tasks == 10
        assert stats.faults == {}
