"""Process-pool PE driver: end-to-end workloads across real processes.

Each PE is a real OS process owning one mp stealval queue in the shared
symmetric heap; idle PEs steal from victims with steal-half volumes and
(for SWS) the paper's §4.3 damping state machine, exactly as the
simulated runtime does — but here the interleavings come from the
kernel scheduler across address spaces, not from a discrete-event loop.

A workload is one :data:`WORKLOADS` entry around the substrate-free
step every substrate runs (node in, child nodes out): ``synthetic``, a
flat bag of ``ntasks`` tasks seeded on PE 0; ``uts``, a named SHA-1 tree
whose task is its ``(state, depth)`` node (:data:`UTS_RECORD`); and
``bpc``, paper §5.2.1's Bouncing Producer-Consumer at ``BpcParams()``,
whose consumer step is real SHA-1 work.

Termination uses two global counters (``created`` / ``completed``) with
the monotone argument: ``completed <= created`` always, and reading
``completed`` *before* ``created`` makes an observed equality stable —
every created task has executed, nothing is in flight.  Both counters
are booked in batches, because the local store belongs to its owner
alone: a PE counts the children it spawns and books them with one
``fetch_add`` before any task leaves the store (a share-out) and before
it books its completions (when the store drains).  So every completion
on the books is of a task on the books, and a child not yet booked
descends from a task this PE ran since its last drain — booked, its
completion still pending — which keeps ``completed`` strictly below
``created`` while such a child exists.

Each PE books its run in the fabric worker's own row,
:class:`~repro.runtime.stats.WorkerStats`, and the runners return one
:class:`MpRunResult`: the fabric's :class:`~repro.runtime.stats.RunStats`
with the books only a real-time run keeps.
"""

from __future__ import annotations

import random
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from ..capabilities import check
from ..core.damping import DampingTracker, TargetMode
from ..runtime.stats import RunStats, ServingStats, WorkerStats, mix64
from ..workloads.bpc_params import PRODUCER, BpcParams, bpc_step
from ..workloads.uts.params import get_tree
from ..workloads.uts.tree import UtsParams, expand_step, uts_step
from .atomics import Backoff
from .errors import MpStallError, StallTimeout
from .fleet import Fleet
from .queue import LAYOUTS

_U64 = (1 << 64) - 1

#: Local-queue size below which a PE does not bother sharing.
RELEASE_MIN = 4

#: Tasks per compute segment: the fabric worker's ``batch_max`` default.
_SEGMENT = 64

#: Hard deadline on a PE's idle wait with no global progress: a livelock
#: fails fast with a diagnostic naming the rank instead of hanging the job.
MP_IDLE_STALL_S = 120.0


# ----------------------------------------------------------------------
# Task records
# ----------------------------------------------------------------------

#: A UTS task is its node, ``(state, depth)``: the 20-byte SHA-1 state and
#: the depth, one record of four whole words.  The root is depth 0.
UTS_RECORD = "<20s4xI4x"
_FP_WORDS = struct.Struct("<Q8xI").unpack


def _fp_uts(node) -> int:
    """A UTS node's fingerprint: :func:`mix64` of its state's first
    8-byte word xor its last 4-byte one, inlined."""
    first, last = _FP_WORDS(node[0])
    x = ((first ^ last) + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _walk(seeds, step, fingerprint, max_nodes=None) -> tuple[int, int]:
    """(node count, xor-of-fingerprints): a sequential DFS of ``step``
    from ``seeds``, refused past ``max_nodes`` nodes."""
    count = chk = 0
    stack = list(seeds)
    while stack:
        node = stack.pop()
        count += 1
        if max_nodes is not None and count > max_nodes:
            raise RuntimeError(f"tree exceeded max_nodes={max_nodes}")
        chk ^= fingerprint(node)
        stack.extend(step(node))
    return count, chk


def _leaf(node) -> tuple:
    return ()


class MpWorkload(NamedTuple):
    """One workload on real processes: what a PE binds, and its oracle."""

    seeds: Sequence          # rank 0's seed nodes
    step: Callable           # node -> child nodes
    fingerprint: Callable    # node -> 64-bit fingerprint
    record: str | None       # a node's struct format (None: a one-word int)
    capacity: int            # the queues' default capacity, in tasks
    expected: Callable       # () -> (tasks, checksum), not by ``step``


def _uts(tree) -> MpWorkload:
    params = tree if isinstance(tree, UtsParams) else get_tree(tree)
    return MpWorkload([(params.root(), 0)], uts_step(params), _fp_uts,
                      UTS_RECORD, 1 << 14, lambda: uts_expected(params))


def _bpc(params: BpcParams) -> MpWorkload:
    def fingerprint(node):
        return mix64(node[0] << 32 | node[1])

    # Every node, enumerated: a producer and its consumers at each depth.
    nodes = [(d, i) for d in range(1, params.depth + 1)
             for i in (*range(params.n_consumers), PRODUCER)]
    return MpWorkload([params.root()], bpc_step(params), fingerprint, "<II",
                      1 << 12, lambda: _walk(nodes, _leaf, fingerprint))


#: name -> the workload, built from ``run_mp``'s ``ntasks`` and ``tree``.
WORKLOADS: dict[str, Callable[..., MpWorkload]] = {
    "synthetic": lambda ntasks, tree: MpWorkload(
        range(ntasks), _leaf, mix64, None, max(256, 2 * ntasks),
        lambda: synthetic_expected(ntasks)),
    "uts": lambda ntasks, tree: _uts(tree),
    "bpc": lambda ntasks, tree: _bpc(BpcParams()),
}


def synthetic_expected(ntasks: int) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) for the flat synthetic bag."""
    return _walk(range(ntasks), _leaf, mix64)


def uts_expected(params: UtsParams, max_nodes: int | None = 2_000_000) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) via a sequential DFS of the
    reference :func:`expand`, not of the step the PEs run."""
    return _walk([(params.root(), 0)], expand_step(params), _fp_uts, max_nodes)


# ----------------------------------------------------------------------
# Result records
# ----------------------------------------------------------------------

@dataclass
class MpRunResult(RunStats):
    """One run on the multiprocess substrate, in the fabric's record.

    ``runtime`` is wall seconds, from the first fork to the last report,
    and ``workers`` holds one row per PE, by rank.  A PE fills the row's
    task, steal, release / acquire and probe counts; the simulated times
    and ``comm`` stay zero.  ``checksum`` is the xor of every executed
    task's fingerprint, ``expected`` the sequential oracle's ``(tasks,
    checksum)`` when the run was verified.
    """

    workload: str = ""
    impl: str = ""
    seed: int = 0
    created: int = 0
    completed: int = 0
    checksum: int = 0
    expected: tuple[int, int] | None = None

    # The names the host-time bench reads.
    pes = property(lambda self: self.workers)
    wall_s = property(lambda self: self.runtime)
    total_executed = property(lambda self: self.total_tasks)

    @property
    def conserved(self) -> bool:
        """No task lost or run twice, as far as the books can tell: the
        counters balance, and match the sequential oracle when verified."""
        ok = self.created == self.completed == self.total_tasks
        if self.expected is not None:
            ok = ok and (self.total_tasks, self.checksum) == self.expected
        return ok


# ----------------------------------------------------------------------
# The PE process body: one loop, two regimes
#
# Everything around the protocol — pop, execute, share, acquire, steal
# sweep, termination read — is written once in ``_pe_loop``.  A regime
# changes a handful of seams, bound *once* before the loop into a
# ``_Regime`` record (regime × seam table: docs/backends.md): plain runs
# seed rank 0's deque; serving runs replay this rank's share of the
# arrival trace at its times.  Both end when created/completed balance.
# ----------------------------------------------------------------------

class _Regime(NamedTuple):
    """The seams one regime binds into the PE loop."""

    local: deque             # the private task store, newest on the right
    execute: Callable        # payload -> child payloads
    fingerprint: Callable    # payload -> 64-bit fingerprint
    inbox: Callable | None = None       # () -> arrivals now due here
    until_due: Callable | None = None   # () -> s to the next one, or None
    extras: Callable | None = None      # () -> the regime's own report


def _books_balanced(heap, ctl):
    """The monotone termination read: ``completed`` *before* ``created``."""
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])

    def balanced() -> bool:
        done = completed.load_seq()
        return done == created.load_seq()

    return balanced


def _bind_plain(rank, heap, layouts, ctl, owner, thieves, wl: MpWorkload):
    for view in (owner, *thieves.values()):
        view.decode_as(wl.record)
    local = deque(wl.seeds if rank == 0 else ())
    return _Regime(local, wl.step, wl.fingerprint)


def _common_start(rank, heap, ctl, npes) -> int:
    """The run's start stamp (monotonic ns), the same on every PE: each
    adds itself to ``ready``, the last to arrive stores ``start``, and
    the rest wait for it."""
    start = heap.ref(ctl["start"])
    if heap.ref(ctl["ready"]).fetch_add(1) == npes - 1:
        start.store(time.monotonic_ns())
    waiting = Backoff(deadline_s=MP_IDLE_STALL_S)
    while not (stamp := start.load_seq()):
        try:
            waiting.wait()
        except StallTimeout:
            raise MpStallError("PE never saw the common start", rank=rank,
                               waited_s=MP_IDLE_STALL_S) from None
    return stamp


def _bind_serve(rank, heap, layouts, ctl, owner, thieves, offsets, slo_ns):
    """Serving regime: arrivals ``rank, rank + npes, ...`` of the trace,
    each due ``offsets[seq]`` ns after the common start.  A record is
    ``(seq, due_ns)``; executing one books its due→execute latency."""
    npes = len(layouts)
    seqs = range(rank, len(offsets), npes)
    books = ServingStats(emitted=len(seqs), injected=len(seqs),
                         slo_ticks=slo_ns)
    complete = books.complete
    start = _common_start(rank, heap, ctl, npes)
    due = deque((seq, start + offsets[seq]) for seq in seqs)

    def execute(payload):
        complete(payload[0], time.monotonic_ns() - payload[1])
        return ()

    def arrived() -> list:
        now = time.monotonic_ns()
        out = []
        while due and due[0][1] <= now:
            out.append(due.popleft())
        return out

    def until_due() -> float | None:
        return (due[0][1] - time.monotonic_ns()) / 1e9 if due else None

    return _Regime(deque(), execute, lambda payload: mix64(payload[0]),
                   arrived, until_due, lambda: books)


def _pe_loop(rank, heap, layouts, ctl, seed, damping, bind,
             *bind_args) -> tuple:
    """One PE: execute local tasks, share on demand, steal when starved.

    Reports ``(stats, checksum, extras)``: its row, the xor of its
    tasks' fingerprints, and the regime's own report (or ``None``)."""
    npes = len(layouts)
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])
    owner = layouts[rank].owner(heap)
    thieves = {
        v: layouts[v].thief(heap) for v in range(npes) if v != rank
    }
    victims = sorted(thieves)
    rng = random.Random((seed * 1_000_003) ^ rank)
    # Only a protocol that damps ever consults the tracker.
    tracker = DampingTracker(npes, enabled=damping)
    modes, empty_mode = tracker.modes, TargetMode.EMPTY
    stats = WorkerStats(rank=rank)
    local, execute, fingerprint, inbox, until_due, extras = bind(
        rank, heap, layouts, ctl, owner, thieves, *bind_args)
    balanced = _books_balanced(heap, ctl)
    pop, popleft, appendleft, extend = (
        local.pop, local.popleft, local.appendleft, local.extend)
    # Whatever release / acquire re-absorb lands straight in the store.
    owner.owner_kept = local
    # The share gate reads the shared portion once per compute segment,
    # off the stripe locks the thieves' claims are hammering.
    shared_has_work = owner.has_work
    capacity = owner.capacity

    def share_out() -> None:
        batch = [popleft() for _ in range(len(local) // 2)]
        pushed = owner.push_all(batch)
        if pushed:
            owner.release(pushed)        # absorbs the previous remainder
            stats.releases += 1
        for payload in reversed(batch[pushed:]):
            appendleft(payload)          # buffer full: keep the rest

    def try_steal_from(victim: int) -> bool:
        if modes.get(victim) is empty_mode:   # a probe goes first
            stats.probes += 1
        status, claimed = thieves[victim].try_steal(tracker, victim)
        if status is None:
            return False                     # probe said empty: no AMO spent
        if claimed:
            stats.steals_ok += 1
            stats.tasks_stolen += len(claimed)
            stats.note_steal_volume(len(claimed))
            extend(claimed)
            return True
        stats.steals_failed += 1
        return False

    # Both books are batched: ``born`` counts the children spawned and
    # ``done_pending`` the tasks run since the last flush.  ``born`` is
    # flushed first at both flush points — before a share-out publishes
    # anything, and before ``done_pending`` when the store drains — so
    # (i) no task reaches a thief, or completes on the books, before it
    # is on the books itself: ``completed <= created`` holds; and (ii) a
    # child not yet booked descends from a task this PE ran since its
    # last drain, which is booked and whose completion is still pending:
    # the books cannot balance while such a child exists.
    executed = checksum = born = done_pending = 0
    idle = Backoff(sleep_s=1e-5, max_sleep_s=1e-3,
                   deadline_s=MP_IDLE_STALL_S)
    while True:
        if local:
            # One compute segment: one share-gate read, up to _SEGMENT
            # tasks; a spent shared portion ends it once there is enough.
            share = owner.nfilled < capacity and not shared_has_work()
            n = 0
            while local and n < _SEGMENT:
                payload = pop()
                children = execute(payload)
                if children:
                    born += len(children)
                    extend(children)
                checksum ^= fingerprint(payload)
                n += 1
                if share and len(local) >= RELEASE_MIN:
                    if born:
                        created.fetch_add(born)
                        born = 0
                    share_out()
                    break
            executed += n
            done_pending += n
            continue
        if born:
            created.fetch_add(born)
            born = 0
        if done_pending:
            completed.fetch_add(done_pending)
            done_pending = 0
        # Starved.  In turn, while still empty: arrivals now due here,
        # our own shared remainder, a steal sweep over the victims in a
        # fresh random order.
        if inbox is not None:
            extend(inbox())
        if not local:
            owner.acquire()
            stats.acquires += 1
        if not local:
            for v in rng.sample(victims, len(victims)):
                if try_steal_from(v):
                    break
        if local:
            idle.reset()
            continue
        # Nothing anywhere: has the run ended?  If not, wait, but never
        # past the next arrival.
        if balanced():
            break
        try:
            idle.wait(until_due() if until_due is not None else None)
        except StallTimeout:
            raise MpStallError("PE idle loop made no progress", rank=rank,
                               waited_s=MP_IDLE_STALL_S) from None

    stats.tasks_executed = executed
    return stats, checksum, extras() if extras is not None else None


# ----------------------------------------------------------------------
# The parent-side runners
# ----------------------------------------------------------------------

def _record(fleet, wall: float, **fields) -> tuple[MpRunResult, list]:
    """The run's record from its PEs' reports, and their extras, by rank."""
    reports = [payload for _, payload in sorted(fleet.reports,
                                                key=lambda r: r[0])]
    checksum = 0
    for _, chk, _ in reports:
        checksum ^= chk
    heap, ctl = fleet.heap, fleet.ctl
    result = MpRunResult(
        npes=len(fleet.procs), runtime=wall,
        workers=[stats for stats, _, _ in reports],
        created=heap.ref(ctl["created"]).load(),
        completed=heap.ref(ctl["completed"]).load(),
        checksum=checksum, **fields)
    return result, [extras for _, _, extras in reports]


def run_mp(
    workload: str = "synthetic",
    impl: str = "sws",
    npes: int = 4,
    *,
    ntasks: int = 2000,
    tree: str | UtsParams = "test_tiny",
    seed: int = 0,
    damping: bool = True,
    capacity: int | None = None,
    verify: bool = False,
    join_timeout: float = 120.0,
) -> MpRunResult:
    """Run one workload end-to-end across ``npes`` real processes.

    With ``verify=True`` the expected node count and checksum are
    computed by a sequential oracle and attached to the result, making
    ``result.conserved`` a zero-lost / zero-duplicated proof.
    """
    build = WORKLOADS.get(workload)
    if build is None:
        raise ValueError(f"workload must be {'|'.join(WORKLOADS)}, "
                         f"got {workload!r}")
    check(impl, "mp", ("run",), npes)
    wl = build(ntasks, tree)
    expected = wl.expected() if verify else None

    with Fleet("mp run", LAYOUTS[impl], npes, capacity or wl.capacity,
               struct.calcsize(wl.record or "<Q") // 8,
               ctl=("created", "completed")) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        heap.ref(ctl["created"]).store(len(wl.seeds))
        for r in range(npes):
            fleet.spawn(r, _pe_loop, fleet.layouts, ctl, seed, damping,
                        _bind_plain, wl)
        result, _ = _record(fleet, fleet.collect(join_timeout),
                            workload=workload, impl=impl, seed=seed,
                            expected=expected)
    return result


# ----------------------------------------------------------------------
# Open-system serving mode (docs/serving.md)
#
# Every arrival is known before the first fork, so the PEs replay the
# trace themselves and the parent feeds nothing: ``created`` starts at
# the trace's length, and rank ``r`` takes the arrivals ``s ≡ r (mod
# npes)`` — the fabric controller's round-robin with no shed threshold.
# The PEs agree on one start stamp, and a starved PE moves the arrivals
# that are due into its store.  The run ends, as a plain one does, once
# ``completed == created``.
# ----------------------------------------------------------------------

def run_mp_serve(
    arrival="poisson:50000",
    duration_s: float = 2e-3,
    impl: str = "sws",
    npes: int = 4,
    *,
    seed: int = 0,
    slo_s: float = 0.0,
    damping: bool = True,
    capacity: int | None = None,
    join_timeout: float = 120.0,
) -> MpRunResult:
    """Serve one arrival trace across ``npes`` real processes.

    The trace's *times* are replayed on the wall clock from a start all
    PEs share, and latency is wall-clock nanoseconds from an arrival's
    due time to its execution, surviving steals because the due stamp
    travels inside the 2-word task record.  No shedding on this
    substrate — every emitted arrival is injected, so ``checksum`` must
    equal the fabric serving checksum for the same trace.  The record's
    ``serving`` holds the books, its latencies in nanoseconds.
    """
    from ..runtime.arrivals import parse_arrival_spec

    check(impl, "mp", ("serving",), npes)
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    # Arrival ticks (fs) as ns after the start.
    offsets = [tick // 1_000_000 for tick in process.trace()]
    slo_ns = int(slo_s * 1e9)

    with Fleet("mp serve run", LAYOUTS[impl], npes,
               capacity or max(256, 2 * len(offsets)), 2,
               ctl=("created", "completed", "ready", "start")) as fleet:
        fleet.heap.ref(fleet.ctl["created"]).store(len(offsets))
        for r in range(npes):
            fleet.spawn(r, _pe_loop, fleet.layouts, fleet.ctl, seed, damping,
                        _bind_serve, offsets, slo_ns)
        result, extras = _record(fleet, fleet.collect(join_timeout),
                                 workload="serving", impl=impl, seed=seed)
    result.serving = ServingStats(slo_ticks=slo_ns)
    for books in extras:
        result.serving.merge(books)
    return result
