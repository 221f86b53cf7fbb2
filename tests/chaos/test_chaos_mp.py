"""Real-process chaos: SIGKILL matrix over the multiprocess substrate.

Unlike ``test_chaos.py`` (simulated fail-stop at a virtual time), every
kill here is a real ``SIGKILL`` of a real worker process at a seeded
task-count trigger, landing at each of the protocol's crash points —
between tasks, mid-steal after the claiming fetch-add, and while
holding a stripe lock of the shared-memory word seam with the seqlock
shadow left odd.  Every scenario asserts the at-least-once recovery
contract:

* the run terminates (supervisor-led quiescence, no wedge);
* every oracle task executed **at least** once (``executed >=
  expected``, with the deduplicated execution set exactly matching);
* the xor over *distinct* fingerprints reconciles against the
  sequential oracle (duplicates are legitimate, loss is not);
* the shared-memory segment is destroyed on every exit path.
"""

from __future__ import annotations

import pytest

from repro.mp.driver import run_mp
from repro.mp.faults import CrashKill, CrashPlan

from ..conftest import nothing_left_behind, sure_kill

pytestmark = [pytest.mark.chaos, pytest.mark.mp, pytest.mark.timeout(300)]

NPES = 4
NTASKS = 800


def _assert_recovered(result, nkills: int) -> None:
    s = result.summary()
    assert result.at_least_once
    assert len(s["crashed_ranks"]) <= nkills
    assert result.executed_unique == result.expected_executed
    assert result.total_executed >= result.expected_executed
    assert result.unique_checksum == result.expected_checksum
    assert result.conserved, s
    # multiplicity histogram accounts for every execution
    assert sum(m * n for m, n in result.multiplicity.items()) \
        == result.total_executed


class TestKillMatrix:
    """One rank dies at each crash point, on both queue protocols."""

    @pytest.mark.parametrize("impl", ["sws", "sdc"])
    @pytest.mark.parametrize("point", ["exec", "steal", "lock"])
    def test_single_kill(self, impl, point):
        # exec/lock kills fire at the trigger count, so they are the sure
        # kill of rank 0.  A steal kill fires at the *next* steal intent —
        # which the seeder may never issue, so it names rank 1, and firing
        # or not are both legitimate outcomes.
        kill = CrashKill(1, 5, point) if point == "steal" else sure_kill(
            NTASKS, point=point)
        rank = kill.rank
        with nothing_left_behind():
            result = run_mp(
                "synthetic", impl, NPES, ntasks=NTASKS,
                crash=CrashPlan(kills=(kill,)),
            )
        _assert_recovered(result, nkills=1)
        if point == "steal":
            assert set(result.crashed_ranks) <= {rank}
        else:
            assert result.crashed_ranks == [rank]
        if point == "lock":
            # the stripe the victim died holding must have been repaired
            assert result.lease_breaks >= 1

    @pytest.mark.parametrize("impl", ["sws", "sdc"])
    def test_kill_on_uts(self, impl):
        # Rank 0 at its first task: the only trigger guaranteed to fire
        # on a small tree (rank 0 seeds the root and executes it), and
        # it proves the root rank is not special to the supervisor.
        result = run_mp(
            "uts", impl, NPES, tree="test_tiny",
            crash=CrashPlan(kills=(sure_kill(1, after=1, point="lock"),)),
        )
        _assert_recovered(result, nkills=1)
        assert result.crashed_ranks == [0]
        assert result.lease_breaks >= 1


class TestWiderPlans:
    def test_two_seeded_wildcard_kills(self):
        # Beside the sure kill of rank 0, two wildcards resolve to two
        # other seeded ranks; whether those reach their trigger before
        # the pool drains is real-process timing.
        plan = CrashPlan(seed=7, kills=(sure_kill(1200), (-1, 5), (-1, 9)))
        named = [k.rank for k in plan.resolve(NPES)]
        assert len(set(named)) == 3
        result = run_mp("synthetic", "sws", NPES, ntasks=1200, crash=plan)
        _assert_recovered(result, nkills=3)
        assert 0 in result.crashed_ranks
        assert set(result.crashed_ranks) <= set(named)

    def test_respawn_rejoins_and_conserves(self):
        # The sure kill: another rank may find the pool drained before
        # it wins a steal (seen on a loaded host: rank 1 executed 0).
        result = run_mp(
            "synthetic", "sws", NPES, ntasks=NTASKS,
            crash=CrashPlan(kills=(sure_kill(NTASKS),), respawn=True),
        )
        _assert_recovered(result, nkills=1)
        assert result.respawned_ranks == [0]
        # the respawned incarnation reported its own stats row
        assert sum(1 for p in result.pes if p.rank == 0) == 2

    def test_seeded_plans_kill_the_same_ranks(self):
        """The seed fixes *which* rank the wildcard names; whether that
        rank reaches its 6th task before the pool drains is real-process
        timing, so a live run may kill it or nobody — never anyone else."""
        plan = CrashPlan(seed=3, kills=((-1, 6),))
        named = [k.rank for k in plan.resolve(NPES)]
        assert named == [k.rank for k in plan.resolve(NPES)]
        assert len(named) == 1 and 0 <= named[0] < NPES
        for _ in range(2):
            result = run_mp("synthetic", "sdc", NPES, ntasks=NTASKS,
                            crash=plan)
            assert set(result.crashed_ranks) <= set(named)
            _assert_recovered(result, 1)


class TestNoCrashPlanIsInert:
    def test_inactive_plan_takes_exactly_once_path(self):
        result = run_mp(
            "synthetic", "sws", NPES, ntasks=NTASKS, verify=True,
            crash=CrashPlan(),
        )
        assert not result.at_least_once
        assert result.conserved
        assert result.lease_breaks == 0

    def test_segment_destroyed_after_crash_run(self):
        with nothing_left_behind():
            result = run_mp(
                "synthetic", "sws", NPES, ntasks=NTASKS,
                crash=CrashPlan(kills=(CrashKill(1, 3, "exec"),),
                                respawn=True),
            )
        assert set(result.crashed_ranks) <= {1}
