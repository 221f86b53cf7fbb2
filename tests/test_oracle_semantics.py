"""Oracle semantics parameterization + conservation mutation tests.

The pool oracle reads the protocol's declared semantics contract and
switches its conservation checks accordingly: strict exactly-once books
(``spawned == executed``, per-event resident bound) versus the
at-least-once closing ``spawned + dup_handouts == executed``.  The
mutation tests seed a genuine conservation bug — a lost task, an
unaccounted duplicate, a thief that skips an index — and prove the
oracle (or the dedup-set conformance check it delegates to) actually
fires; without these, a silently vacuous oracle would pass every run.
"""

import pytest

from repro.fabric.errors import OracleViolation
from repro.runtime.oracle import PoolOracle
from repro.runtime.pool import TaskPool
from repro.runtime.registry import TaskOutcome, TaskRegistry
from repro.runtime.task import Task

pytestmark = pytest.mark.timeout(120)


def leaf_registry():
    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=1e-4))
    return reg


def run_with_oracle(impl: str, npes: int = 4, ntasks: int = 60, seed: int = 7):
    """A clean oracle-armed run; returns the pool (oracle still attached)."""
    pool = TaskPool(npes, leaf_registry(), impl=impl, oracle=True, seed=seed)
    pool.seed(0, [Task(0)] * ntasks)
    pool.run()
    return pool


class TestContractSelection:
    @pytest.mark.parametrize(
        "impl,exactly_once",
        [
            ("sws", True),
            ("sws-v1", True),
            ("sdc", True),
            ("localized", True),
            ("ff-mult", False),
        ],
    )
    def test_oracle_adopts_protocol_contract(self, impl, exactly_once):
        pool = TaskPool(2, leaf_registry(), impl=impl)
        assert PoolOracle(pool).exactly_once is exactly_once

    def test_bare_pool_defaults_to_exactly_once(self):
        """Harnesses without a protocol attribute get the strict contract."""
        pool = TaskPool(2, leaf_registry(), impl="ff-mult")

        class Stub:  # protocol-less stand-in (a bare test harness)
            npes = pool.npes
            workers = pool.workers
            ctx = pool.ctx

        assert PoolOracle(Stub()).exactly_once is True


class TestCleanRunsPass:
    @pytest.mark.parametrize("impl", ("sws", "sdc", "ff-mult", "localized"))
    def test_oracle_clean_on_healthy_run(self, impl):
        pool = run_with_oracle(impl)
        assert pool.oracle.checks_passed > 0
        pool.oracle.check_final()  # idempotent: books still balance

    def test_legal_duplicates_do_not_false_positive(self):
        """An ff-mult run's executed count may exceed spawned; the books
        close through dup_handouts and the oracle stays silent."""
        pool = run_with_oracle("ff-mult", npes=8, ntasks=200, seed=42)
        spawned = sum(w.stats.tasks_spawned for w in pool.workers)
        executed = sum(w.stats.tasks_executed for w in pool.workers)
        dups = sum(w.queue.dup_handouts for w in pool.workers)
        assert executed == spawned + dups
        pool.oracle.check_final()


class TestMutationsAreCaught:
    """Seeded conservation bugs must trip the oracle — one per protocol."""

    def test_ffmult_lost_task_fails_final_books(self):
        """ff-mult mutation: one executed task vanishes from the books."""
        pool = run_with_oracle("ff-mult")
        pool.workers[0].stats.tasks_executed -= 1
        with pytest.raises(OracleViolation, match="conservation-final"):
            pool.oracle.check_final()

    def test_ffmult_unaccounted_duplicate_fails_final_books(self):
        """ff-mult mutation: an execution with no duplicate handout
        credit cannot balance ``spawned + dups == executed``."""
        pool = run_with_oracle("ff-mult")
        pool.workers[1].stats.tasks_executed += 1
        with pytest.raises(OracleViolation, match="conservation-final"):
            pool.oracle.check_final()

    def test_localized_duplicate_fails_final_books(self):
        """localized mutation: exactly-once books reject any imbalance."""
        pool = run_with_oracle("localized")
        pool.workers[0].stats.tasks_executed += 1
        with pytest.raises(OracleViolation, match="conservation-final"):
            pool.oracle.check_final()

    def test_localized_lost_task_fails_final_books(self):
        pool = run_with_oracle("localized")
        pool.workers[2].stats.tasks_executed -= 1
        with pytest.raises(OracleViolation, match="conservation-final"):
            pool.oracle.check_final()

    def test_undrained_queue_fails_final_books(self):
        """A task left resident at termination trips the drain check."""
        pool = run_with_oracle("localized")
        w = pool.workers[0]
        w.queue.enqueue(bytes(pool.queue_config.task_size))
        with pytest.raises(OracleViolation, match="drain-final"):
            pool.oracle.check_final()

    def test_sabotaged_thief_store_loses_a_task(self, shim_queue):
        """Shim-level ff-mult mutation: a thief that stores ``t + 2``
        skips an index — the dedup-set conservation check must fail.

        This proves the at-least-once check is not vacuous: coverage
        equality really distinguishes a lost task from a duplicate.
        """
        ntasks = 40
        queue = shim_queue("ff-mult", range(ntasks))
        queue.release(20)
        stolen = []
        while True:
            t, s = queue.tail.load(), queue.split.load()
            if s - t <= 0:
                break
            stolen.extend(queue._read_tasks(t, 1))
            queue.tail.store(t + 2)  # BUG: skips index t + 1 entirely
        queue.drain()
        kept = queue.take_kept()
        covered = set(stolen) | set(kept)
        assert covered != set(range(ntasks)), (
            "seeded skip-a-task bug went undetected"
        )
        lost = set(range(ntasks)) - covered
        assert lost, "the sabotaged store must lose at least one task"

    def test_healthy_thief_store_loses_nothing(self, shim_queue):
        """Control for the mutation above: the correct ``t + 1`` store
        preserves full coverage under the same drive."""
        ntasks = 40
        queue = shim_queue("ff-mult", range(ntasks))
        queue.release(20)
        stolen = []
        while True:
            res = queue.steal()
            if not res.claimed:
                break
            stolen.extend(res.claimed)
        queue.drain()
        assert set(stolen) | set(queue.take_kept()) == set(range(ntasks))
