"""The one owner/thief contract every fabric queue meets.

``repro.core.split_queue`` states it; this drives
``enqueue → release → steal → acquire → progress → dequeue`` through it
for every registered protocol with no per-protocol branch — the only
protocol facts consulted are the ones the registry record declares
(steal volume, semantics contract).
"""

import inspect

import pytest

from repro.core.config import QueueConfig
from repro.core.results import StealStatus
from repro.core.steal_half import share_half
from repro.fabric.engine import Delay
from repro.runtime.protocols import all_protocols
from repro.shmem.api import ShmemCtx

from .conftest import TEST_LAT, rec, rec_id, run_procs

NTASKS = 16


@pytest.mark.parametrize("protocol", all_protocols(), ids=lambda p: p.name)
def test_owner_thief_contract(protocol):
    ctx = ShmemCtx(2, latency=TEST_LAT)
    system = protocol.queue_system(ctx, QueueConfig(qsize=64, task_size=16))
    victim, thief = system.handle(0), system.handle(1)
    for i in range(NTASKS):
        victim.enqueue(rec(i))
    assert (victim.local_count, victim.stealable) == (NTASKS, 0)
    kept: list[int] = []

    def take(op):
        """Run one management op; it must be a generator whatever the
        protocol, and the two counts must book exactly what it moved."""
        before = victim.local_count, victim.stealable
        gen = op()
        assert inspect.isgenerator(gen), op
        moved = yield from gen
        sign = -1 if op == victim.release else 1
        assert victim.local_count == before[0] + sign * moved
        assert victim.stealable == before[1] - sign * moved
        return moved

    def owner():
        released = yield from take(victim.release)
        assert released == share_half(NTASKS)
        yield Delay(100e-6)  # the thief's steal runs to completion
        shared = victim.stealable
        acquired = yield from take(victim.acquire)
        assert acquired == share_half(shared)
        # Everything the thief took is reclaimable by now.
        assert victim.progress() >= 0
        assert victim.in_use == victim.local_count + victim.stealable
        while victim.local_count or victim.stealable:
            while (record := victim.dequeue()) is not None:
                kept.append(rec_id(record))
            yield from take(victim.acquire)
        assert victim.dequeue() is None

    def stealer():
        yield Delay(10e-6)
        shared = victim.stealable
        result = yield from thief.steal(0)
        assert result.status is StealStatus.STOLEN
        assert result.ntasks == (max(1, shared // 2) if protocol.steal_half else 1)
        assert victim.stealable == shared - result.ntasks
        yield thief.pe.quiet()
        return [rec_id(r) for r in result.records]

    _, stolen = run_procs(ctx, owner(), stealer(), names=["owner", "thief"])
    victim.invariants()
    # One thief, no race: nothing is handed out twice under any contract,
    # and an exactly-once queue could not report a duplicate if it tried.
    assert sorted(stolen + kept) == list(range(NTASKS))
    assert victim.dup_handouts == thief.dup_handouts == 0
    if protocol.semantics.exactly_once:
        assert type(victim).dup_handouts == 0
