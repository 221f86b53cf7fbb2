"""Race tests for the lock-based SDC protocol over real threads."""

from collections import Counter

import pytest

from repro.threads import hammer

#: Race tests must fail loudly, not hang the suite, when a thread wedges.
pytestmark = pytest.mark.timeout(120)


class TestSequential:
    def test_release_then_steal_half(self, shim_queue):
        q = shim_queue("sdc", range(16))
        q.release(16)
        r = q.steal()
        assert r.claimed == list(range(8))
        r2 = q.steal()
        assert r2.claimed == [8, 9, 10, 11]

    def test_empty_steal(self, shim_queue):
        q = shim_queue("sdc", range(4))
        r = q.steal()
        assert r.empty and not r.claimed

    def test_acquire_takes_top_half(self, shim_queue):
        q = shim_queue("sdc", range(8))
        q.release(8)
        taken = q.acquire()
        assert taken == [4, 5, 6, 7]

    def test_locked_steal_spins(self, shim_queue):
        q = shim_queue("sdc", range(8))
        q.release(8)
        q.lock.store(1)  # jam the lock
        q.max_spins = 10
        r = q.steal()
        assert r.lock_spins == 10
        assert not r.claimed

    def test_drain_collects_everything(self, shim_queue):
        q = shim_queue("sdc", range(10))
        q.release(4)
        q.steal()
        q.drain()
        stolen_plus_kept = len(q.owner_kept) + 2  # steal took 2
        assert stolen_plus_kept == 10


@pytest.mark.parametrize("nthieves", [2, 4, 8])
def test_hammer_sdc_conserves_tasks(nthieves):
    tasks = list(range(3000))
    loot, kept = hammer(tasks, nthieves=nthieves, releases=6, acquires=2,
                        impl="sdc")
    stolen = [t for l in loot for t in l]
    counts = Counter(stolen + kept)
    assert all(v == 1 for v in counts.values()), "duplicated tasks"
    assert sorted(counts) == tasks, "lost tasks"


def test_sdc_and_sws_shims_agree_on_conservation():
    """Same hammer pattern on both protocols: both conserve exactly."""
    tasks = list(range(2000))
    for impl in ("sws", "sdc"):
        loot, kept = hammer(tasks, nthieves=4, releases=5, acquires=2,
                            impl=impl)
        stolen = [t for l in loot for t in l]
        assert sorted(stolen + kept) == tasks, impl
