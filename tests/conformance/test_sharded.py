"""Sharded-simulator conformance: golden §4 schedule across shard counts.

The paper's golden scenario — 300 enqueued tasks, a 150-task allotment
drained by one thief — must come out *identical* whether the fabric
simulation runs on one engine or is partitioned across conservative
time-window shards with the thief stealing across the shard boundary:

* the claim-volume schedule stays {75, 37, 19, 9, 5, 2, 1, 1, 1};
* the stolen/kept partition (and its checksum) matches the classic
  single-engine run bit-for-bit;
* every exactly-once protocol conserves the full task set.

Runs the victim on PE 0 and the thief on the *last* PE of a 4-PE job so
that 2- and 4-shard partitions both place the steal across shards.
"""

from __future__ import annotations

import pytest

from .backends import GOLDEN_150, NTOTAL, partition_checksum, protocol_fabric

pytestmark = [pytest.mark.conformance, pytest.mark.timeout(300)]

SHARDED_PROTOCOLS = ("sws", "sdc", "localized")
NPES = 4
THIEF = NPES - 1


def sharded_golden(protocol_name: str, nshards: int) -> dict:
    """The golden scenario with the steal crossing a shard boundary."""
    from repro.core.config import QueueConfig
    from repro.core.results import StealStatus
    from repro.fabric.engine import Delay
    from repro.fabric.sharding import ShardGroup
    from repro.runtime.protocols import get_protocol

    from ..conftest import TEST_LAT, rec, rec_id

    protocol = get_protocol(protocol_name)
    cfg = QueueConfig(qsize=512, task_size=16)
    group = ShardGroup(NPES, nshards, TEST_LAT)
    # Every shard constructs the identical queue layout; only the
    # owning shard's rows are authoritative.
    systems = [protocol.queue_system(ctx, cfg) for ctx in group.ctxs]
    victim_q = systems[group.plan.shard_of(0)].handle(0)
    thief_q = systems[group.plan.shard_of(THIEF)].handle(THIEF)
    volumes: list[int] = []
    stolen: list[int] = []

    def victim():
        for i in range(NTOTAL):
            victim_q.enqueue(rec(i))
        yield from victim_q.release()

    def thief():
        yield Delay(50e-6)
        while True:
            result = yield from thief_q.steal(0)
            if result.status is not StealStatus.STOLEN:
                return result.status
            volumes.append(result.ntasks)
            stolen.extend(rec_id(r) for r in result.records)

    group.spawn(0, victim(), name="victim")
    thief_proc = group.spawn(THIEF, thief(), name="thief")
    group.run()
    assert thief_proc.result is StealStatus.EMPTY
    kept: list[int] = []
    while (record := victim_q.dequeue()) is not None:
        kept.append(rec_id(record))
    return {"volumes": volumes, "stolen": stolen, "kept": kept}


@pytest.fixture(scope="module")
def cells():
    """(protocol, nshards) -> observables, plus the classic reference."""
    out = {}
    for proto in SHARDED_PROTOCOLS:
        out[(proto, "classic")] = protocol_fabric(proto)
        for nshards in (1, 2, 4):
            out[(proto, nshards)] = sharded_golden(proto, nshards)
    return out


@pytest.mark.parametrize("proto", SHARDED_PROTOCOLS)
@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_sharded_volumes_match_golden(cells, proto, nshards):
    """The §4 steal-half schedule survives shard partitioning."""
    assert cells[(proto, nshards)]["volumes"] == GOLDEN_150


@pytest.mark.parametrize("proto", SHARDED_PROTOCOLS)
@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_sharded_partition_matches_classic(cells, proto, nshards):
    """Stolen/kept ids agree bit-for-bit with the single-engine run."""
    classic = cells[(proto, "classic")]
    sharded = cells[(proto, nshards)]
    assert sharded["stolen"] == classic["stolen"]
    assert sharded["kept"] == classic["kept"]
    assert (partition_checksum(sharded["stolen"] + sharded["kept"])
            == partition_checksum(classic["stolen"] + classic["kept"]))


@pytest.mark.parametrize("proto", SHARDED_PROTOCOLS)
@pytest.mark.parametrize("nshards", [1, 2, 4])
def test_sharded_conserves_tasks(cells, proto, nshards):
    """Exactly-once: the partition covers all 300 tasks, no duplicates."""
    cell = cells[(proto, nshards)]
    ids = cell["stolen"] + cell["kept"]
    assert sorted(ids) == list(range(NTOTAL))


@pytest.mark.parametrize("proto", SHARDED_PROTOCOLS)
def test_shard_counts_agree_with_each_other(cells, proto):
    """1, 2 and 4 shards are the same computation, not merely each
    individually plausible."""
    one, two, four = (cells[(proto, n)] for n in (1, 2, 4))
    assert one == two == four


def test_sharded_pool_end_to_end_conserves():
    """Whole-pool sharded run: merged books balance, and the run leaves
    nothing behind — shards are stepped in this process, so no child
    process and no ``/dev/shm`` segment may exist afterwards."""
    import multiprocessing
    import os

    from repro.runtime.registry import TaskOutcome, TaskRegistry
    from repro.runtime.sharded import ShardedTaskPool
    from repro.runtime.task import Task

    shm_before = set(os.listdir("/dev/shm"))
    reg = TaskRegistry()
    reg.register("leaf", lambda payload, tc: TaskOutcome(duration=5e-6))
    for nshards in (2, 4):
        pool = ShardedTaskPool(8, reg, nshards, impl="sws", oracle=True)
        pool.seed_round_robin(
            [Task(reg.id_of("leaf")) for _ in range(NTOTAL)]
        )
        stats = pool.run()
        assert sum(w.tasks_executed for w in stats.workers) == NTOTAL
        assert stats.sharding["nshards"] == nshards
        assert stats.sharding["rounds"] > 0
        assert multiprocessing.active_children() == []
        assert set(os.listdir("/dev/shm")) == shm_before


# ----------------------------------------------------------------------
# what a sharded run guarantees about virtual time (docs/sharding.md)
# ----------------------------------------------------------------------
#: The only worker fields a shard count may move.  The first two are
#: thief-side waits, which absorb a lost same-tick tie at a target's
#: atomic unit (one ``amo_process`` slot per tie); ``steal_time`` moves
#: in its last float digit only, the same durations being differences
#: of shifted absolute times.
TIE_SENSITIVE = ("search_time", "first_task_time", "steal_time")


def _fig7_class(nshards: int):
    """The fig7-class job of docs/sharding.md: BPC, 64 PEs, sws, EDR."""
    from repro.core.config import QueueConfig
    from repro.runtime.registry import TaskRegistry
    from repro.runtime.sharded import ShardedTaskPool
    from repro.workloads.bpc import BpcParams, BpcWorkload

    reg = TaskRegistry()
    wl = BpcWorkload(reg, BpcParams(n_consumers=32, depth=8,
                                    consumer_time=500e-6,
                                    producer_time=100e-6))
    pool = ShardedTaskPool(64, reg, nshards, impl="sws",
                           queue_config=QueueConfig(qsize=4096, task_size=32))
    pool.seed(0, [wl.seed_task()])
    return pool.run()


@pytest.fixture(scope="module")
def fig7_single():
    return _fig7_class(1)


@pytest.mark.parametrize("nshards", [2, 4])
def test_sharded_virtual_time_is_a_legal_tie_break_away(fig7_single, nshards):
    """A multi-shard run is the single engine's computation under a
    different — equally legal — order of same-tick events: a message
    crossing a shard boundary gets its engine ``seq`` at delivery, not
    at issue.  On this job that is visible only as which of two
    same-tick atomics waits one ``amo_process`` slot at the target:
    every count and every owner-side field is equal, the three
    thief-side wait sums move by at most three slots, the runtime by at
    most one.  (Measured: 16 of 64 workers differ at 2 shards, 25 at 4;
    largest shift 75 ns.  The bound is a pinned fact of this job on EDR,
    not a theorem — see docs/sharding.md.)"""
    from repro.fabric.latency import EDR_INFINIBAND

    slot = EDR_INFINIBAND.amo_process
    one, many = fig7_single, _fig7_class(nshards)
    assert many.comm == one.comm
    assert len(many.workers) == len(one.workers) == 64
    for a, b in zip(one.workers, many.workers):
        fa, fb = dict(a.__dict__), dict(b.__dict__)
        for name in TIE_SENSITIVE:
            assert abs(fa.pop(name) - fb.pop(name)) <= 3 * slot + 1e-15, (
                f"pe{a.rank}.{name} moved by more than 3 amo_process slots"
            )
        assert fa == fb, f"pe{a.rank}: a non-timing field changed"
    assert abs(many.runtime - one.runtime) <= slot + 1e-15
    # The window loop is deterministic: its round and grant counts on
    # this job are exact, so a change to the algorithm shows here.
    assert (many.sharding["rounds"], many.sharding["grants"]) == {
        2: (27265, 27314), 4: (36486, 58784),
    }[nshards]
