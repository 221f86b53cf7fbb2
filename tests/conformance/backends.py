"""Per-backend runners producing comparable protocol observables.

Each ``golden_*`` function drives the same scenario — a single 150-task
allotment drained by one thief — on one execution substrate and returns
the same observable record::

    {
        "volumes":   per-steal claim volumes, in claim order,
        "stolen":    integer ids of every stolen task,
        "kept":      integer ids of every task the owner retained,
        "claims":    successful claims observed,
        "completed": completion-accounting total for the allotment,
    }

The conformance tests assert these agree across the discrete-event
fabric, the threads backend, and the multiprocess substrate: the schedule
arithmetic is a pure function of (itasks, asteals), so every backend
must produce the §4 golden volumes {75, 37, 19, 9, 5, 2, 1, 1, 1}
exactly, conserve the task set, and account 150 completed tasks.
"""

from __future__ import annotations

#: The paper's §4 worked example: steal-half schedule of a 150-task
#: allotment (mirrors tests/schedules/test_golden_schedule.py).
GOLDEN_150 = [75, 37, 19, 9, 5, 2, 1, 1, 1]

#: Tasks enqueued per run; the fabric's release() exposes half, so the
#: other backends release(NTOTAL // 2) to match allotments exactly.
NTOTAL = 300


def golden_fabric() -> dict:
    """The scenario on the discrete-event fabric (simulated RDMA)."""
    from repro.core.config import QueueConfig
    from repro.core.results import StealStatus
    from repro.core.sws_queue import SwsQueueSystem
    from repro.fabric.engine import Delay
    from repro.shmem.api import ShmemCtx

    from ..conftest import TEST_LAT, rec, rec_id, run_procs

    cfg = QueueConfig(qsize=512, task_size=16)
    ctx = ShmemCtx(2, latency=TEST_LAT)
    system = SwsQueueSystem(ctx, cfg)
    victim_q = system.handle(0)
    thief_q = system.handle(1)
    volumes: list[int] = []
    stolen: list[int] = []

    def victim():
        for i in range(NTOTAL):
            victim_q.enqueue(rec(i))
        yield from victim_q.release()

    def thief():
        # Start after the release lands: a pre-publication fetch-add
        # would burn a claim against the stale word.
        yield Delay(50e-6)
        while True:
            result = yield from thief_q.steal(0)
            if result.status is not StealStatus.STOLEN:
                return result.status
            volumes.append(result.ntasks)
            stolen.extend(rec_id(r) for r in result.records)

    _, status = run_procs(ctx, victim(), thief(), names=["victim", "thief"])
    assert status is StealStatus.EMPTY
    kept: list[int] = []
    while (record := victim_q.dequeue()) is not None:
        kept.append(rec_id(record))
    return {
        "volumes": volumes,
        "stolen": stolen,
        "kept": kept,
        "claims": len(volumes),
        "completed": sum(volumes),
    }


def golden_threads() -> dict:
    """The scenario on the threads backend: the SWS layout on a heap of
    this process, the owner's own ``steal`` as the thief."""
    from repro.mp.queue import in_process_queue

    with in_process_queue("sws", range(NTOTAL)) as queue:
        queue.release(NTOTAL // 2)
        return _drain_shim(queue)


def golden_mp() -> dict:
    """The scenario on the multiprocess substrate (shared memory).

    The thief view claims through the cross-process atomic seam; the
    race tests cover genuine multi-process interleavings, conformance
    pins the deterministic observables.
    """
    from repro.mp.heap import MpHeap
    from repro.mp.queue import SwsQueueLayout

    heap = MpHeap()
    layout = SwsQueueLayout.reserve(heap, "conf", capacity=NTOTAL)
    heap.freeze()
    try:
        queue = layout.owner(heap)
        queue.push_all(range(NTOTAL))
        queue.release(NTOTAL // 2)
        return _drain_shim(queue, thief=layout.thief(heap))
    finally:
        heap.close()
        heap.unlink()


def _drain_shim(queue, thief=None) -> dict:
    """Steal-until-empty against a shim-core queue, then drain the owner.

    The completion total is read from the live epoch's completion row
    *before* the owner drains (drain may recycle the row).
    """
    stealer = thief if thief is not None else queue
    volumes: list[int] = []
    stolen: list[int] = []
    while True:
        res = stealer.steal()
        if res.aborted_locked or res.empty:
            break
        volumes.append(len(res.claimed))
        stolen.extend(res.claimed)
    base = queue.epoch * queue.comp_slots
    completed = sum(
        queue.comp[base + i].load() for i in range(queue.comp_slots)
    )
    queue.drain()
    return {
        "volumes": volumes,
        "stolen": stolen,
        "kept": list(queue.take_kept()),
        "claims": len(volumes),
        "completed": completed,
    }


BACKENDS = {
    "fabric": golden_fabric,
    "threads": golden_threads,
    "mp": golden_mp,
}


# ======================================================================
# Protocol × backend matrix runners
# ======================================================================

#: Protocols the matrix drives on every substrate (sws-v1 has no
#: shared-memory layout, so it stays out of the cross-backend rows).
MATRIX_PROTOCOLS = ("sws", "sdc", "localized", "ff-mult")


def partition_checksum(ids) -> int:
    """Order-independent checksum of a task-id collection (multiset)."""
    acc = 0
    for i in ids:
        acc ^= (i * 0x9E3779B97F4A7C15 + 0xDEADBEEF) & (1 << 64) - 1
    return acc


def protocol_fabric(protocol_name: str) -> dict:
    """One protocol's golden scenario on the discrete-event fabric."""
    from repro.core.config import QueueConfig
    from repro.core.results import StealStatus
    from repro.fabric.engine import Delay
    from repro.runtime.protocols import get_protocol
    from repro.shmem.api import ShmemCtx

    from ..conftest import TEST_LAT, rec, rec_id, run_procs

    protocol = get_protocol(protocol_name)
    cfg = QueueConfig(qsize=512, task_size=16)
    ctx = ShmemCtx(2, latency=TEST_LAT)
    system = protocol.queue_system(ctx, cfg)
    victim_q = system.handle(0)
    thief_q = system.handle(1)
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

    _, status = run_procs(ctx, victim(), thief(), names=["victim", "thief"])
    assert status is StealStatus.EMPTY
    kept: list[int] = []
    while (record := victim_q.dequeue()) is not None:
        kept.append(rec_id(record))
    return {"volumes": volumes, "stolen": stolen, "kept": kept}


def protocol_threads(protocol_name: str) -> dict:
    """One protocol's golden scenario on the threads backend."""
    from repro.mp.queue import in_process_queue
    from repro.runtime.protocols import get_protocol

    protocol = get_protocol(protocol_name)
    assert protocol.mp_impl is not None, protocol_name
    with in_process_queue(protocol.mp_impl, range(NTOTAL)) as queue:
        queue.release(NTOTAL // 2)
        return _drain_any(queue)


def protocol_mp(protocol_name: str) -> dict:
    """One protocol's golden scenario on the multiprocess substrate."""
    from repro.mp.heap import MpHeap
    from repro.mp.queue import LAYOUTS
    from repro.runtime.protocols import get_protocol

    protocol = get_protocol(protocol_name)
    assert protocol.mp_impl is not None, protocol_name
    layout_cls = LAYOUTS[protocol.mp_impl]
    heap = MpHeap()
    layout = layout_cls.reserve(heap, "confmx", capacity=NTOTAL)
    heap.freeze()
    try:
        queue = layout.owner(heap)
        queue.push_all(range(NTOTAL))
        queue.release(NTOTAL // 2)
        return _drain_any(queue, thief=layout.thief(heap))
    finally:
        heap.close()
        heap.unlink()


def _drain_any(queue, thief=None) -> dict:
    """Steal-until-empty for any shim family, then drain the owner.

    Family-agnostic: every shim steal result exposes ``claimed``, which
    is empty exactly when the attempt got nothing (locked, empty, or
    spun out).  A single deterministic thief never races, so the first
    empty result means the shared section is exhausted.
    """
    stealer = thief if thief is not None else queue
    volumes: list[int] = []
    stolen: list[int] = []
    while True:
        res = stealer.steal()
        if not res.claimed:
            break
        volumes.append(len(res.claimed))
        stolen.extend(res.claimed)
    queue.drain()
    return {
        "volumes": volumes,
        "stolen": stolen,
        "kept": list(queue.take_kept()),
    }


PROTOCOL_BACKENDS = {
    "fabric": protocol_fabric,
    "threads": protocol_threads,
    "mp": protocol_mp,
}
