"""Process-pool PE driver: end-to-end workloads across real processes.

Each PE is a real OS process owning one mp stealval queue in the shared
symmetric heap; idle PEs steal from victims with steal-half volumes and
(for SWS) the paper's §4.3 damping state machine, exactly as the
simulated runtime does — but here the interleavings come from the
kernel scheduler across address spaces, not from a discrete-event loop.

Workloads:

* ``synthetic`` — a flat bag of ``ntasks`` independent tasks seeded on
  PE 0; every other PE starts empty, so all load balance comes from
  stealing.
* ``uts`` — an Unbalanced Tree Search over a named SHA-1 tree
  (:mod:`repro.workloads.uts`); a task is its ``(state, depth)`` node,
  stored as one 4-word record (:data:`UTS_RECORD`), children are
  enqueued locally and shared on demand.

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

import hashlib
import math
import random
import struct
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

from ..capabilities import check
from ..core.damping import DampingTracker, TargetMode
from ..runtime.stats import QuantileSketch, RunStats, ServingStats, WorkerStats
from ..shmem.heap import SymmetricAllocator
from ..workloads.uts.params import get_tree
from ..workloads.uts.sha1_rng import _TWO31
from ..workloads.uts.tree import TreeType, UtsParams, expand, geo_log1mp_table
from .atomics import Backoff
from .errors import MpStallError, RingOverflowError, StallTimeout
from .fleet import Fleet
from .queue import LAYOUTS

# The serving inbox is imported by ``run_mp_serve``, in the parent and
# before the first PE is forked, so a plain run never compiles it and no
# PE loop ever imports.
if TYPE_CHECKING:
    from .inbox import ShmInbox

_U64 = (1 << 64) - 1

#: Local-queue size below which a PE does not bother sharing.
RELEASE_MIN = 4

#: Tasks per compute segment: the fabric worker's ``batch_max`` default.
_SEGMENT = 64

#: Hard deadline on a PE's idle wait with no global progress: a livelock
#: fails fast with a diagnostic naming the rank instead of hanging the job.
MP_IDLE_STALL_S = 120.0


def _mix64(x: int) -> int:
    """Splitmix64 finalizer: an order-independent task fingerprint."""
    x = (x + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return (x ^ (x >> 31)) & _U64


# ----------------------------------------------------------------------
# Task records
# ----------------------------------------------------------------------

#: A UTS task is its node, ``(state, depth)``: the 20-byte SHA-1 state and
#: the depth, one record of four whole words.  The root is depth 0.
UTS_RECORD = "<20s4xI4x"
_FP_WORDS = struct.Struct("<Q8xI").unpack


def _fp_uts(node) -> int:
    """A UTS node's fingerprint: :func:`_mix64` of its state's first
    8-byte word xor its last 4-byte one, inlined."""
    first, last = _FP_WORDS(node[0])
    x = ((first ^ last) + 0x9E3779B97F4A7C15) & _U64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def synthetic_expected(ntasks: int) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) for the flat synthetic bag."""
    chk = 0
    for i in range(ntasks):
        chk ^= _mix64(i)
    return ntasks, chk


def uts_expected(params: UtsParams, max_nodes: int | None = 2_000_000) -> tuple[int, int]:
    """(node count, xor-of-fingerprints) via a sequential DFS oracle."""
    count = 0
    chk = 0
    stack: list[tuple[bytes, int]] = [(params.root(), 0)]
    while stack:
        node = stack.pop()
        count += 1
        if max_nodes is not None and count > max_nodes:
            raise RuntimeError(f"tree exceeded max_nodes={max_nodes}")
        chk ^= _fp_uts(node)
        state, depth = node
        stack.extend((c, depth + 1)
                     for c in expand(params, state, depth, depth == 0))
    return count, chk


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
# seed rank 0's deque and end when created/completed balance; serving
# runs drain an arrival inbox and end once the feeder has closed it.
# ----------------------------------------------------------------------

class _Regime(NamedTuple):
    """The seams one regime binds into the PE loop."""

    local: deque             # the private task store, newest on the right
    execute: Callable        # payload -> child payloads
    fingerprint: Callable    # payload -> 64-bit fingerprint
    finished: Callable       # () -> bool, asked only when starved
    inbox: Callable | None = None       # () -> tasks posted to this PE
    extras: Callable | None = None      # () -> the regime's own report


def _uts_execute(params: UtsParams) -> Callable:
    """A UTS node's task body: its ``(state, depth)`` in, its children's
    nodes out.

    GEO trees draw the child count through the per-depth table, exactly
    as :func:`~repro.workloads.uts.tree.num_children` does, and hash a
    child's state only when there is one; BIN trees run the reference
    :func:`~repro.workloads.uts.tree.expand`.
    """
    if params.tree_type is not TreeType.GEO:
        def execute(node):
            state, depth = node
            return [(c, depth + 1)
                    for c in expand(params, state, depth, depth == 0)]

        return execute

    table = geo_log1mp_table(params)
    horizon = len(table)
    be32 = struct.Struct(">I")          # the draw, and a child's index
    draw, index = be32.unpack_from, be32.pack
    sha1, log = hashlib.sha1, math.log

    def execute(node):
        state, depth = node
        if depth >= horizon:
            return ()
        log1mp = table[depth]
        if log1mp == 0.0:
            return ()
        n = int(log(1.0 - (draw(state)[0] & 0x7FFFFFFF) / _TWO31) / log1mp)
        if not n:
            return ()
        depth += 1
        return [(sha1(state + index(i)).digest(), depth) for i in range(n)]

    return execute


def _bind_workload(kind, arg):
    """(rank-0 seed tasks, execute, fingerprint) for a workload spec."""
    if kind == "synthetic":
        return range(arg), (lambda payload: ()), _mix64
    if kind == "uts":
        return [(arg.root(), 0)], _uts_execute(arg), _fp_uts
    raise ValueError(f"unknown workload {kind!r}")


def _books_balanced(heap, ctl):
    """The monotone termination read: ``completed`` *before* ``created``."""
    created = heap.ref(ctl["created"])
    completed = heap.ref(ctl["completed"])

    def balanced() -> bool:
        done = completed.load_seq()
        return done == created.load_seq()

    return balanced


def _bind_plain(rank, heap, layouts, ctl, owner, thieves, wl):
    seed_tasks, execute, fingerprint = _bind_workload(*wl)
    if wl[0] == "uts":
        for view in (owner, *thieves.values()):
            view.decode_as(UTS_RECORD)
    local = deque(seed_tasks if rank == 0 else ())
    return _Regime(local, execute, fingerprint, _books_balanced(heap, ctl))


def _bind_serve(rank, heap, layouts, ctl, owner, thieves,
                inbox_regions, slo_ns):
    """Serving regime: records are ``(seq, post_ns)``; executing one is
    sketching its post→execute latency."""
    sketch = QuantileSketch()
    slo_attained = [0]

    def execute(payload):
        lat = time.monotonic_ns() - payload[1]
        sketch.add(lat)
        if slo_ns and lat <= slo_ns:
            slo_attained[0] += 1
        return ()

    closed = heap.ref(ctl["closed"])
    balanced = _books_balanced(heap, ctl)
    return _Regime(
        deque(), execute, lambda payload: _mix64(payload[0]),
        lambda: bool(closed.load_seq()) and balanced(),
        inbox=_serve_inbox(heap, inbox_regions[rank]).drain,
        extras=lambda: (sketch, slo_attained[0]),
    )


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
    local, execute, fingerprint, finished, inbox, extras = bind(
        rank, heap, layouts, ctl, owner, thieves, *bind_args)
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
        # Starved.  In turn, while still empty: tasks posted to our
        # inbox, our own shared remainder, a steal sweep over the
        # victims in a fresh random order.
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
        # Nothing anywhere: has the run ended?
        if finished():
            break
        try:
            idle.wait()
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
    if workload not in ("synthetic", "uts"):
        raise ValueError(f"workload must be synthetic|uts, got {workload!r}")
    check(impl, "mp", ("run",), npes)

    if workload == "synthetic":
        wl = ("synthetic", ntasks)
        wpt = 1
        capacity = capacity or max(256, 2 * ntasks)
        nseed = ntasks
    else:
        params = tree if isinstance(tree, UtsParams) else get_tree(tree)
        wl = ("uts", params)
        wpt = 4
        capacity = capacity or (1 << 14)
        nseed = 1

    expected = None
    if verify:
        expected = (synthetic_expected(ntasks) if workload == "synthetic"
                    else uts_expected(wl[1]))

    with Fleet("mp run", LAYOUTS[impl], npes, capacity, wpt,
               ctl=("created", "completed")) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        heap.ref(ctl["created"]).store(nseed)
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
# The parent process is the arrival feeder: it replays a seeded arrival
# trace (in arrival order) into per-rank SPSC inboxes, bumping the
# global ``created`` counter *before* each post so the created/completed
# books can never balance while an injection is still in flight.  PEs
# drain their inbox into the local deque and otherwise run the classic
# share/steal loop; each record carries ``(seq, post_ns)`` so completion
# latency survives steals.  Termination: the feeder sets ``closed`` after
# the last post, and a starved PE exits once ``closed`` is set and
# ``completed == created`` (completed read first, as ever).
# ----------------------------------------------------------------------

#: Serving records are (arrival seq, post timestamp ns) pairs.
_SERVE_WPT = 2


def _reserve_serve_inbox(heap, rank: int, capacity: int):
    """Symmetric rd/wr/buf words for one PE's arrival inbox."""
    alloc = SymmetricAllocator(heap, f"serve{rank}")
    rd = alloc.word("rd")
    wr = alloc.word("wr")
    buf = alloc.array("buf", capacity * _SERVE_WPT)
    alloc.commit()
    return (rd, wr, buf, capacity)


def _serve_inbox(heap, region) -> ShmInbox:
    from .inbox import ShmInbox

    rd, wr, buf, capacity = region
    return ShmInbox(heap, rd, wr, buf, capacity, _SERVE_WPT)


def _try_post(inbox: ShmInbox, records) -> bool:
    try:
        inbox.post(records)
    except RingOverflowError:
        return False
    return True


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
    inbox_cap: int | None = None,
    nbatches: int = 16,
    pace_s: float = 2e-4,
    join_timeout: float = 120.0,
) -> MpRunResult:
    """Serve one arrival trace across ``npes`` real processes.

    The trace's *order* is replayed (the mp substrate has no virtual
    clock): the parent feeds batches round-robin into per-rank inboxes
    with ``pace_s`` gaps, and latency is wall-clock nanoseconds from post
    to execution, surviving steals because the stamp travels inside the
    2-word task record.  No shedding on this substrate — every emitted
    arrival is injected, so ``checksum`` must equal the fabric serving
    checksum for the same trace length.  The record's ``serving`` holds
    the books, its latencies in nanoseconds.
    """
    from ..runtime.arrivals import parse_arrival_spec

    check(impl, "mp", ("serving",), npes)
    if isinstance(arrival, str):
        process = parse_arrival_spec(arrival, duration_s, seed)
    else:
        process = arrival
    n = process.emitted
    capacity = capacity or max(256, 2 * n)
    inbox_cap = inbox_cap or max(64, capacity)
    slo_ns = int(slo_s * 1e9)

    def reserve(heap):
        return [_reserve_serve_inbox(heap, r, inbox_cap) for r in range(npes)]

    with Fleet("mp serve run", LAYOUTS[impl], npes, capacity, _SERVE_WPT,
               ctl=("created", "completed", "closed"),
               regions=reserve) as fleet:
        heap, ctl = fleet.heap, fleet.ctl
        created = heap.ref(ctl["created"])
        # Bound before the first fork: the PEs inherit the inbox module.
        inboxes = [_serve_inbox(heap, reg) for reg in fleet.regions]
        for r in range(npes):
            fleet.spawn(r, _pe_loop, fleet.layouts, ctl, seed, damping,
                        _bind_serve, fleet.regions, slo_ns)

        # -- the feeder: replay the trace in batches, round-robin ------
        deadline = time.monotonic() + join_timeout
        batch = max(1, (n + nbatches - 1) // nbatches) if n else 0
        injected = 0
        while injected < n:
            seqs = range(injected, min(n, injected + batch))
            by_rank: dict[int, list[int]] = {}
            for s in seqs:
                by_rank.setdefault(s % npes, []).append(s)
            for r in sorted(by_rank):
                group = by_rank[r]
                # Count first: the books cannot balance while the post
                # is still in flight, so no PE exits early.
                created.fetch_add(len(group))
                stamp = time.monotonic_ns()
                records = [(s, stamp) for s in group]
                while not _try_post(inboxes[r], records):
                    # Inbox full: only rank r can drain it.
                    fleet.drain()
                    if (not fleet.procs[r].is_alive()
                            or time.monotonic() > deadline):
                        raise MpStallError(
                            f"mp serve run: arrival inbox of "
                            f"{fleet.describe(r)} never drained", rank=r)
                    time.sleep(1e-4)
            injected += len(seqs)
            time.sleep(pace_s)
        heap.ref(ctl["closed"]).store(1)

        result, extras = _record(
            fleet, fleet.collect(max(0.0, deadline - time.monotonic())),
            workload="serving", impl=impl, seed=seed)
    sketch = QuantileSketch()
    slo_attained = 0
    for pe_sketch, pe_attained in extras:
        sketch.merge(pe_sketch)
        slo_attained += pe_attained
    result.serving = ServingStats(
        emitted=n,
        injected=injected,
        shed=0,
        completed=result.completed,
        slo_ticks=slo_ns,
        slo_attained=slo_attained,
        checksum=result.checksum,
        latency=sketch,
    )
    return result
