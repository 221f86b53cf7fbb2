"""Isolated probes: fixed op counts timed against one layer's public calls.

Each probe answers "what does one operation of this layer cost the host"
without the rest of the program around it, so a change to one layer has a
number that moves before the end-to-end metric does.  Probes are grouped
under the workload that stresses the same layer and run once in its
traced measurement.

A probe that no longer fits the program (a symbol moved, a signature
changed) reports its metric as absent with a warning; it never fails the
run, because a later change may not edit the benchmark.
"""

from __future__ import annotations

import time

_now = time.perf_counter


def _engine_events(facts: dict) -> None:
    from repro.fabric.engine import Engine

    n = 200_000
    engine = Engine()
    noop = lambda: None  # noqa: E731
    start = _now()
    for i in range(n):
        engine.schedule_ticks(i, noop)
    engine.run()
    facts["engine.probe_ns_per_event"] = (_now() - start) / n * 1e9


def _calendar_ops(facts: dict) -> None:
    from repro.fabric.engine import CalendarQueue

    n = 100_000
    queue = CalendarQueue()
    noop = lambda: None  # noqa: E731
    entries = [[(i * 7919) % n * 1000, i, noop, None] for i in range(n)]
    start = _now()
    for entry in entries:
        queue.push(entry)
    while queue.pop() is not None:
        pass
    facts["calendar.probe_ns_per_op"] = (_now() - start) / (2 * n) * 1e9


def _nic_amo(facts: dict) -> None:
    from repro.shmem.api import ShmemCtx

    n = 20_000
    ctx = ShmemCtx(2)
    ctx.heap.alloc_words("probe", 1)
    pe = ctx.pe(0)

    def initiator():
        for _ in range(n):
            yield pe.atomic_fetch_add(1, "probe", 0, 1)

    ctx.engine.spawn(initiator(), "probe")
    start = _now()
    ctx.run()
    elapsed = _now() - start
    if ctx.heap.load(1, "probe", 0) != n:
        raise RuntimeError("remote fetch-add probe lost updates")
    facts["nic.probe_host_us_per_amo"] = elapsed / n * 1e6


def _heap_word_ops(facts: dict) -> None:
    from repro.fabric.memory import SymmetricHeap

    n = 100_000
    heap = SymmetricHeap(2)
    heap.alloc_words("probe", 8)
    start = _now()
    for i in range(n):
        heap.fetch_add(1, "probe", 3, 1)
        heap.load(1, "probe", 3)
        heap.store(0, "probe", 5, i)
    facts["heap.probe_ns_per_word_op"] = (_now() - start) / (3 * n) * 1e9


def _single_steal(facts: dict) -> None:
    from repro.workloads.synthetic import measure_single_steal

    n = 100
    for impl in ("sws", "sdc"):
        start = _now()
        for _ in range(n):
            measure_single_steal(impl, volume=8, task_size=24)
        facts[f"protocol.probe_host_us_per_steal.{impl}"] = (
            (_now() - start) / n * 1e6)


def _stealval_codec(facts: dict) -> None:
    from repro.core.stealval import StealValEpoch

    n = 100_000
    pack, unpack = StealValEpoch.pack, StealValEpoch.unpack
    start = _now()
    for i in range(n):
        unpack(pack(i & 0xFF, i & 1, 150, i & 0xFFFF))
    facts["protocol.probe_ns_per_codec"] = (_now() - start) / (2 * n) * 1e9


def _uts_node(facts: dict) -> None:
    from repro.workloads.uts import BENCH_GEO, enumerate_tree

    start = _now()
    nodes = enumerate_tree(BENCH_GEO).nodes
    facts["workload.probe_us_per_uts_node"] = (_now() - start) / nodes * 1e6


def _sketch_add(facts: dict) -> None:
    from repro.runtime.stats import QuantileSketch

    n = 200_000
    sketch = QuantileSketch()
    start = _now()
    for i in range(n):
        sketch.add(1_000_000 + (i * 7919) % 50_000_000)
    facts["stats.probe_ns_per_sketch_add"] = (_now() - start) / n * 1e9


def _shm_atomics(facts: dict) -> None:
    from repro.mp.atomics import ShmWords

    n = 50_000
    words = ShmWords(64)
    try:
        for metric, op in (
            ("atomics.probe_ns_fetch_add", lambda i: words.fetch_add(7, 1)),
            ("atomics.probe_ns_load_seq", lambda i: words.load_seq(7)),
            ("atomics.probe_ns_cas", lambda i: words.compare_swap(9, i, i + 1)),
        ):
            start = _now()
            for i in range(n):
                op(i)
            facts[metric] = (_now() - start) / n * 1e9
        if words.load(7) != n or words.load(9) != n:
            raise RuntimeError("uncontended atomics probe lost updates")
    finally:
        words.close()
        words.unlink()


def _data_plane(facts: dict) -> None:
    from repro.mp.atomics import ShmWords

    records, reps = 1024, 400
    words = ShmWords(4 * records)
    try:
        block = bytes(range(256)) * (4 * records * 8 // 256)
        start = _now()
        for _ in range(reps):
            words.write_block(0, block)
            copied = words.read_block(0, 4 * records)
        elapsed = _now() - start
        if copied != block:
            raise RuntimeError("bulk copy probe read back different bytes")
        facts["dataplane.probe_ns_per_task_copy"] = elapsed / (records * reps) * 1e9
    finally:
        words.close()
        words.unlink()


def _mp_queue(facts: dict) -> None:
    """Owner path and steal path of the shared-memory queues, with the
    owner's and the thief's view in this one process."""
    from repro.mp.heap import MpHeap
    from repro.mp.queue import SdcQueueLayout, SwsQueueLayout

    capacity, batch = 4096, 8
    for impl, layout_cls in (("sws", SwsQueueLayout), ("sdc", SdcQueueLayout)):
        for steal_path in (False, True):
            heap = MpHeap()
            try:
                layout = layout_cls.reserve(heap, "probe", capacity)
                heap.freeze()
                owner, thief = layout.owner(heap), layout.thief(heap)
                moved = steals = 0
                spent = 0.0
                for first in range(0, capacity, batch):
                    tasks = range(first, first + batch)
                    if steal_path:
                        owner.push_all(tasks)
                        owner.release(batch)
                        claimed = True
                        while claimed:
                            start = _now()
                            claimed = thief.steal().claimed
                            spent += _now() - start
                            steals += 1
                            moved += len(claimed)
                    else:
                        start = _now()
                        owner.push_all(tasks)
                        owner.release(batch)
                        owner.acquire()
                        moved += len(owner.take_kept())
                        spent += _now() - start
                owner.drain()
                moved += len(owner.take_kept())
                if moved != capacity:
                    raise RuntimeError(
                        f"{impl} queue probe moved {moved} of {capacity} tasks")
                if steal_path:
                    facts[f"mpqueue.probe_us_steal.{impl}"] = spent / steals * 1e6
                else:
                    facts[f"mpqueue.probe_ns_push_pop.{impl}"] = spent / capacity * 1e9
            finally:
                heap.close()
                heap.unlink()


#: Which probes run in which workload's traced measurement.
PROBES = {
    "bpc_coarse": (_engine_events, _calendar_ops, _nic_amo, _heap_word_ops,
                   _single_steal),
    "uts_fine": (_stealval_codec, _uts_node),
    "serve_open": (_sketch_add,),
    "mp_uts": (_shm_atomics, _data_plane, _mp_queue),
}


def run_probes(workload: str, facts: dict) -> list[str]:
    """Run the workload's probes into ``facts``; returns warnings."""
    warnings = []
    for probe in PROBES.get(workload, ()):
        try:
            probe(facts)
        except Exception as exc:  # a probe must never fail the benchmark
            warnings.append(
                f"probe {probe.__name__.lstrip('_')} not applicable to this "
                f"tree: {type(exc).__name__}: {exc}")
    return warnings
